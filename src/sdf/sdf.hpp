// ccsched — synchronous dataflow (SDF) front end.
//
// The loop bodies the paper schedules are single-rate data-flow graphs; in
// DSP practice they are specified as multi-rate SDF (Lee & Messerschmitt):
// actors produce/consume fixed token counts per firing and channels carry
// initial tokens (the registers).  This module provides
//
//  * the SDF graph type with consistency checking,
//  * the repetition vector (smallest positive integer solution of the
//    balance equations q(a)*produce = q(b)*consume per channel),
//  * the classic single-rate (HSDF) expansion: actor a becomes q(a)
//    copies, channel tokens become dependence edges whose iteration
//    distance becomes the CSDFG delay — after which the whole ccsched
//    pipeline (cyclo-compaction, validation, simulation) applies as-is.
//
// Deadlock shows up naturally: an SDF graph with too few initial tokens
// expands to a CSDFG with a zero-delay cycle, which Csdfg legality
// rejects.
#pragma once

#include <string>
#include <vector>

#include "core/csdfg.hpp"

namespace ccs {

/// Identifier of an SDF actor.
using ActorId = std::size_t;

/// A multi-rate actor.
struct SdfActor {
  std::string name;
  int time = 1;  ///< Execution time per firing, >= 1.
};

/// A token channel between actors.
struct SdfChannel {
  ActorId from = 0;
  ActorId to = 0;
  int produce = 1;              ///< Tokens produced per firing of `from`.
  int consume = 1;              ///< Tokens consumed per firing of `to`.
  int initial_tokens = 0;       ///< Tokens present before the first firing.
  std::size_t token_volume = 1; ///< Data volume of one token.
};

/// A synchronous dataflow graph.
class SdfGraph {
public:
  SdfGraph() = default;
  explicit SdfGraph(std::string name) : name_(std::move(name)) {}

  /// Adds an actor (time >= 1 enforced; empty names synthesized).
  ActorId add_actor(std::string name, int time);

  /// Adds a channel; rates must be >= 1, initial tokens >= 0,
  /// token_volume in [1, kMaxEdgeVolume].
  std::size_t add_channel(ActorId from, ActorId to, int produce, int consume,
                          int initial_tokens = 0,
                          std::size_t token_volume = 1);

  [[nodiscard]] std::size_t actor_count() const noexcept {
    return actors_.size();
  }
  [[nodiscard]] std::size_t channel_count() const noexcept {
    return channels_.size();
  }
  [[nodiscard]] const SdfActor& actor(ActorId a) const;
  [[nodiscard]] const SdfChannel& channel(std::size_t c) const;
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

private:
  std::string name_ = "sdf";
  std::vector<SdfActor> actors_;
  std::vector<SdfChannel> channels_;
};

/// The repetition vector: the smallest positive integers q with
/// q[from]*produce == q[to]*consume on every channel.  Throws GraphError
/// when the balance equations are inconsistent (the graph would accumulate
/// or starve tokens) or the graph is not weakly connected (per-component
/// rates would be independent — split the graph instead).
[[nodiscard]] std::vector<long long> repetition_vector(const SdfGraph& sdf);

/// Result of the single-rate expansion.
struct SdfExpansion {
  Csdfg graph;  ///< One CSDFG iteration == one SDF graph iteration.
  /// copy_of[actor][k] = NodeId of firing k (0-based within an iteration).
  std::vector<std::vector<NodeId>> copy_of;
  std::vector<long long> repetitions;  ///< The repetition vector used.
};

/// Expands `sdf` to its single-rate equivalent: firing k of actor a is
/// node "name.k"; the n-th token of a channel links its producing firing
/// to its consuming firing with the iteration distance as the delay, and
/// parallel token edges between the same firing pair merge with summed
/// volume.  Throws GraphError if the graph is inconsistent or deadlocked
/// (the expansion would contain a zero-delay cycle), or if a merged volume
/// exceeds kMaxEdgeVolume.
[[nodiscard]] SdfExpansion expand_sdf(const SdfGraph& sdf);

}  // namespace ccs
