#include "workloads/library.hpp"

#include <array>
#include <string>

#include "util/contracts.hpp"

namespace ccs {

Csdfg paper_example6() {
  Csdfg g("paper6");
  const NodeId A = g.add_node("A", 1);
  const NodeId B = g.add_node("B", 2);
  const NodeId C = g.add_node("C", 1);
  const NodeId D = g.add_node("D", 1);
  const NodeId E = g.add_node("E", 2);
  const NodeId F = g.add_node("F", 1);
  g.add_edge(A, B, 0, 1);  // e1
  g.add_edge(A, C, 0, 1);  // e2
  g.add_edge(A, E, 0, 1);  // e3
  g.add_edge(B, D, 0, 1);  // e4
  g.add_edge(B, E, 0, 2);  // e5
  g.add_edge(C, E, 0, 1);  // e6
  g.add_edge(D, A, 3, 3);  // e7
  g.add_edge(D, F, 0, 2);  // e8
  g.add_edge(E, F, 0, 1);  // e9
  g.add_edge(F, E, 1, 1);  // e10
  g.require_legal();
  return g;
}

Csdfg paper_example19() {
  Csdfg g("paper19");
  // Node names and execution times are the paper's (Figure 7); the edge
  // structure is the DESIGN.md §5 reconstruction: three pipelined chains
  // (A-B-H-G-M-P, C-I-K-N-O, F-J-L-Q), sources D and E, a reduction tail
  // (R, S), and five loop-carried feedback edges closing the recurrences.
  const NodeId A = g.add_node("A", 1);
  const NodeId B = g.add_node("B", 1);
  const NodeId C = g.add_node("C", 2);
  const NodeId D = g.add_node("D", 1);
  const NodeId E = g.add_node("E", 1);
  const NodeId F = g.add_node("F", 2);
  const NodeId G = g.add_node("G", 1);
  const NodeId H = g.add_node("H", 1);
  const NodeId I = g.add_node("I", 1);
  const NodeId J = g.add_node("J", 2);
  const NodeId K = g.add_node("K", 1);
  const NodeId L = g.add_node("L", 2);
  const NodeId M = g.add_node("M", 1);
  const NodeId N = g.add_node("N", 1);
  const NodeId O = g.add_node("O", 1);
  const NodeId P = g.add_node("P", 2);
  const NodeId Q = g.add_node("Q", 1);
  const NodeId R = g.add_node("R", 1);
  const NodeId S = g.add_node("S", 1);

  // Data volumes are sized so the start-up schedule lands in the paper's
  // 12-15 band and responds to the interconnect, while the feedback delays
  // leave the compactor the pipelining room its tables show (5-7 steps).
  g.add_edge(A, B, 0, 2);
  g.add_edge(B, H, 0, 2);
  g.add_edge(H, G, 0, 4);
  g.add_edge(G, M, 0, 2);
  g.add_edge(M, P, 0, 2);
  g.add_edge(C, I, 0, 2);
  g.add_edge(I, K, 0, 2);
  g.add_edge(K, N, 0, 2);
  g.add_edge(N, O, 0, 2);
  g.add_edge(F, J, 0, 2);
  g.add_edge(J, L, 0, 2);
  g.add_edge(L, Q, 0, 2);
  g.add_edge(D, M, 0, 2);
  g.add_edge(E, R, 0, 2);
  g.add_edge(O, R, 0, 2);
  g.add_edge(Q, R, 0, 2);
  g.add_edge(P, S, 0, 4);
  g.add_edge(R, S, 0, 2);
  // Loop-carried feedback.
  g.add_edge(S, A, 4, 3);
  g.add_edge(Q, G, 3, 1);
  g.add_edge(R, M, 3, 1);
  g.add_edge(O, C, 3, 1);
  g.add_edge(P, F, 2, 1);
  g.require_legal();
  CCS_ENSURES(g.node_count() == 19);
  return g;
}

namespace {

/// One wave-digital-filter adaptor section: 8 additions, 2 multiplications,
/// two intra-section state loops.  `u` is the section input; the section's
/// ladder output (a8) is returned.  When `deferred_input` is true the u
/// edges are loop-carried (d = 1) — used to close the global recurrence
/// into section 0.
NodeId ewf_section(Csdfg& g, int index, NodeId u, bool deferred_input) {
  const std::string p =
      std::string("s").append(std::to_string(index)).append(".");
  // The filter's global state register bank: four registers on the
  // recurrence into section 0 keep the big cycle's time/delay ratio near
  // the intra-section recurrences (the real benchmark distributes its
  // registers similarly; a single register would make the 42-unit global
  // cycle the iteration bound and the filter unpipelinable).
  const int du = deferred_input ? 4 : 0;
  const NodeId a1 = g.add_node(p + "a1", 1);
  const NodeId a2 = g.add_node(p + "a2", 1);
  const NodeId m1 = g.add_node(p + "m1", 2);
  const NodeId a3 = g.add_node(p + "a3", 1);
  const NodeId a4 = g.add_node(p + "a4", 1);
  const NodeId m2 = g.add_node(p + "m2", 2);
  const NodeId a5 = g.add_node(p + "a5", 1);
  const NodeId a6 = g.add_node(p + "a6", 1);
  const NodeId a7 = g.add_node(p + "a7", 1);
  const NodeId a8 = g.add_node(p + "a8", 1);
  g.add_edge(u, a1, du, 1);
  g.add_edge(a6, a1, 1, 1);  // state loop 1
  g.add_edge(a1, a2, 0, 1);
  g.add_edge(a8, a2, 1, 1);  // state loop 2
  g.add_edge(a2, m1, 0, 1);
  g.add_edge(m1, a3, 0, 1);
  g.add_edge(a1, a3, 0, 1);
  g.add_edge(a3, a4, 0, 1);
  g.add_edge(u, a4, du, 1);
  g.add_edge(a4, m2, 0, 1);
  g.add_edge(m2, a5, 0, 1);
  g.add_edge(a3, a5, 0, 1);
  g.add_edge(a5, a6, 0, 1);
  g.add_edge(a2, a6, 0, 1);
  g.add_edge(a6, a7, 0, 1);
  g.add_edge(m1, a7, 0, 1);
  g.add_edge(a7, a8, 0, 1);
  g.add_edge(a4, a8, 0, 1);
  return a8;
}

}  // namespace

Csdfg elliptic_filter() {
  Csdfg g("elliptic");
  // Global recurrence: ga2 feeds section 0 through the filter's state
  // register; three adaptor sections in cascade; two output-side scaling
  // multipliers close the wave ladder.
  const NodeId ga2 = g.add_node("ga2", 1);  // created first, wired below
  const NodeId out0 = ewf_section(g, 0, ga2, /*deferred_input=*/true);
  const NodeId out1 = ewf_section(g, 1, out0, false);
  const NodeId out2 = ewf_section(g, 2, out1, false);
  const NodeId gm1 = g.add_node("gm1", 2);
  const NodeId ga1 = g.add_node("ga1", 1);
  const NodeId gm2 = g.add_node("gm2", 2);
  g.add_edge(out2, gm1, 0, 1);
  g.add_edge(gm1, ga1, 0, 1);
  g.add_edge(out0, ga1, 0, 1);
  g.add_edge(ga1, gm2, 0, 1);
  g.add_edge(gm2, ga2, 0, 1);
  g.add_edge(out1, ga2, 0, 1);
  g.require_legal();
  CCS_ENSURES(g.node_count() == 34);
  CCS_ENSURES(g.total_computation() == 42);  // 26 adds + 8 two-cycle muls
  return g;
}

Csdfg lattice_filter() {
  Csdfg g("lattice");
  constexpr int kStages = 5;
  const NodeId x = g.add_node("x", 1);  // input conditioning op (f_5 = x)

  // All-pole IIR lattice: for k = 5..1,
  //   f_{k-1} = f_k - K_k * b_{k-1}[n-1]      (MF_k, AF_k)
  //   b_k     = b_{k-1}[n-1] + K_k * f_{k-1}  (MB_k, AB_k)
  // with b_0 = f_0.  AF_k produces f_{k-1}; AB_k produces b_k.
  std::array<NodeId, kStages + 1> af{};  // af[k] produces f_{k-1}
  std::array<NodeId, kStages + 1> ab{};  // ab[k] produces b_k
  // Stage creation order follows the f-chain: k = 5 down to 1; the b_{k-1}
  // operands are wired afterwards because b_{k-1} for k > 1 is AB_{k-1},
  // created in the second loop.
  for (int k = kStages; k >= 1; --k) {
    const std::string s = std::to_string(k);
    const NodeId mf = g.add_node("MF" + s, 2);
    const NodeId afk = g.add_node("AF" + s, 1);
    const NodeId f_in = (k == kStages) ? x : af[static_cast<std::size_t>(k) + 1];
    g.add_edge(f_in, afk, 0, 1);
    g.add_edge(mf, afk, 0, 1);
    af[static_cast<std::size_t>(k)] = afk;
    // Stash the multiplier id in ab[] temporarily? No: record separately.
    ab[static_cast<std::size_t>(k)] = mf;  // temporary: MF id until b wired
  }
  // Wire the b-side: b_0 = f_0 = AF_1's output.
  std::array<NodeId, kStages + 1> b{};
  b[0] = af[1];
  for (int k = 1; k <= kStages; ++k) {
    const std::string s = std::to_string(k);
    const NodeId mf = ab[static_cast<std::size_t>(k)];
    g.add_edge(b[static_cast<std::size_t>(k) - 1], mf, 1, 1);  // b_{k-1}[n-1]
    const NodeId mb = g.add_node("MB" + s, 2);
    g.add_edge(af[static_cast<std::size_t>(k)], mb, 0, 1);  // K_k * f_{k-1}
    const NodeId abk = g.add_node("AB" + s, 1);
    g.add_edge(b[static_cast<std::size_t>(k) - 1], abk, 1, 1);
    g.add_edge(mb, abk, 0, 1);
    b[static_cast<std::size_t>(k)] = abk;
  }
  // Output ladder y = b_1 + ... + b_5.
  NodeId acc = b[1];
  for (int k = 2; k <= kStages; ++k) {
    const NodeId s =
        g.add_node(std::string("S").append(std::to_string(k - 1)), 1);
    g.add_edge(acc, s, 0, 1);
    g.add_edge(b[static_cast<std::size_t>(k)], s, 0, 1);
    acc = s;
  }
  g.require_legal();
  CCS_ENSURES(g.node_count() == 25);
  CCS_ENSURES(g.total_computation() == 35);  // 15 adds + 10 two-cycle muls
  return g;
}

Csdfg iir_biquad_cascade(std::size_t sections) {
  CCS_EXPECTS(sections >= 1);
  Csdfg g("biquad_x" + std::to_string(sections));
  const NodeId x = g.add_node("x", 1);
  NodeId in = x;
  for (std::size_t s = 0; s < sections; ++s) {
    const std::string p =
        std::string("b").append(std::to_string(s)).append(".");
    // Direct-form II: w = x - a1*w[n-1] - a2*w[n-2];
    //                 y = b0*w + b1*w[n-1] + b2*w[n-2].
    const NodeId a1w = g.add_node(p + "a1w", 2);
    const NodeId a2w = g.add_node(p + "a2w", 2);
    const NodeId s1 = g.add_node(p + "s1", 1);
    const NodeId w = g.add_node(p + "w", 1);
    const NodeId b0w = g.add_node(p + "b0w", 2);
    const NodeId b1w = g.add_node(p + "b1w", 2);
    const NodeId b2w = g.add_node(p + "b2w", 2);
    const NodeId y1 = g.add_node(p + "y1", 1);
    const NodeId y = g.add_node(p + "y", 1);
    g.add_edge(in, s1, 0, 1);
    g.add_edge(a1w, s1, 0, 1);
    g.add_edge(s1, w, 0, 1);
    g.add_edge(a2w, w, 0, 1);
    g.add_edge(w, a1w, 1, 1);
    g.add_edge(w, a2w, 2, 1);
    g.add_edge(w, b0w, 0, 1);
    g.add_edge(w, b1w, 1, 1);
    g.add_edge(w, b2w, 2, 1);
    g.add_edge(b0w, y1, 0, 1);
    g.add_edge(b1w, y1, 0, 1);
    g.add_edge(y1, y, 0, 1);
    g.add_edge(b2w, y, 0, 1);
    in = y;
  }
  g.require_legal();
  return g;
}

Csdfg fir_filter(std::size_t taps) {
  CCS_EXPECTS(taps >= 2);
  Csdfg g("fir" + std::to_string(taps));
  const NodeId x = g.add_node("x", 1);
  NodeId acc = 0;
  for (std::size_t i = 0; i < taps; ++i) {
    const NodeId m = g.add_node(std::string("m").append(std::to_string(i)), 2);
    g.add_edge(x, m, static_cast<int>(i), 1);  // tap line: one delay/stage
    if (i == 0) {
      acc = m;
    } else {
      const NodeId s =
          g.add_node(std::string("s").append(std::to_string(i)), 1);
      g.add_edge(acc, s, 0, 1);
      g.add_edge(m, s, 0, 1);
      acc = s;
    }
  }
  g.require_legal();
  return g;
}

Csdfg diffeq_solver() {
  Csdfg g("diffeq");
  const NodeId dx = g.add_node("dx", 1);
  const NodeId m1 = g.add_node("m1", 2);  // 3*x
  const NodeId m2 = g.add_node("m2", 2);  // u*dx
  const NodeId m3 = g.add_node("m3", 2);  // 3*x*u*dx
  const NodeId m4 = g.add_node("m4", 2);  // 3*y
  const NodeId m5 = g.add_node("m5", 2);  // 3*y*dx
  const NodeId m6 = g.add_node("m6", 2);  // u*dx (y-update path)
  const NodeId s1 = g.add_node("s1", 1);  // u - m3
  const NodeId u1 = g.add_node("u1", 1);  // s1 - m5
  const NodeId y1 = g.add_node("y1", 1);  // y + m6
  const NodeId x1 = g.add_node("x1", 1);  // x + dx
  const NodeId cmp = g.add_node("cmp", 1);
  g.add_edge(x1, m1, 1, 1);
  g.add_edge(u1, m2, 1, 1);
  g.add_edge(dx, m2, 0, 1);
  g.add_edge(m1, m3, 0, 1);
  g.add_edge(m2, m3, 0, 1);
  g.add_edge(y1, m4, 1, 1);
  g.add_edge(m4, m5, 0, 1);
  g.add_edge(dx, m5, 0, 1);
  g.add_edge(u1, m6, 1, 1);
  g.add_edge(dx, m6, 0, 1);
  g.add_edge(u1, s1, 1, 1);
  g.add_edge(m3, s1, 0, 1);
  g.add_edge(s1, u1, 0, 1);
  g.add_edge(m5, u1, 0, 1);
  g.add_edge(y1, y1, 1, 1);
  g.add_edge(m6, y1, 0, 1);
  g.add_edge(x1, x1, 1, 1);
  g.add_edge(dx, x1, 0, 1);
  g.add_edge(x1, cmp, 0, 1);
  g.require_legal();
  return g;
}

Csdfg correlator(std::size_t taps) {
  CCS_EXPECTS(taps >= 1);
  Csdfg g("correlator" + std::to_string(taps));
  const NodeId host = g.add_node("host", 1);
  std::vector<NodeId> cmp, add;
  for (std::size_t k = 0; k < taps; ++k) {
    cmp.push_back(
        g.add_node(std::string("c").append(std::to_string(k + 1)), 3));
    add.push_back(
        g.add_node(std::string("a").append(std::to_string(k + 1)), 7));
  }
  // Delayed comparator chain: host -> c1 -> c2 -> ... (one register each).
  g.add_edge(host, cmp[0], 1, 1);
  for (std::size_t k = 0; k + 1 < taps; ++k)
    g.add_edge(cmp[k], cmp[k + 1], 1, 1);
  // Undelayed adder reduction back to the host.
  for (std::size_t k = 0; k < taps; ++k) g.add_edge(cmp[k], add[k], 0, 1);
  for (std::size_t k = taps - 1; k > 0; --k)
    g.add_edge(add[k], add[k - 1], 0, 1);
  g.add_edge(add[0], host, 0, 1);
  g.require_legal();
  CCS_ENSURES(g.node_count() == 2 * taps + 1);
  return g;
}

}  // namespace ccs
