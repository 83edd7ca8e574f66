#include "serve/service.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <istream>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/bounds.hpp"
#include "arch/comm_model.hpp"
#include "engine/solve_cache.hpp"
#include "engine/solver.hpp"
#include "io/serve_codec.hpp"
#include "io/schedule_format.hpp"
#include "io/text_format.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"
#include "robust/deadline.hpp"

#ifndef _WIN32
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace ccs {

namespace {

std::atomic<bool> g_serve_stop{false};

/// Drain preemption: armed when the drain allowance is spent, observed by
/// every in-flight RunBudget through RequestDeadline::budget().
class DrainToken final : public BudgetStopToken {
public:
  [[nodiscard]] bool stop_requested(int /*current_best*/) const override {
    return fired_.load(std::memory_order_relaxed);
  }
  void fire() noexcept { fired_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool fired() const noexcept {
    return fired_.load(std::memory_order_relaxed);
  }

private:
  std::atomic<bool> fired_{false};
};

/// One admitted unit of work.
struct Job {
  unsigned long long seq = 0;
  ServeRequest req;
  RequestDeadline deadline;
};

/// Bounded MPMC work queue; a full queue refuses (the shed path) rather
/// than blocking the reader.
class WorkQueue {
public:
  explicit WorkQueue(std::size_t depth) : depth_(depth == 0 ? 1 : depth) {}

  bool try_push(Job job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || jobs_.size() >= depth_) return false;
      jobs_.push_back(std::move(job));
      if (jobs_.size() > max_depth_) max_depth_ = jobs_.size();
    }
    cv_.notify_one();
    return true;
  }

  std::optional<Job> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !jobs_.empty(); });
    if (jobs_.empty()) return std::nullopt;
    Job job = std::move(jobs_.front());
    jobs_.pop_front();
    return job;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] std::size_t max_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_depth_;
  }

private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> jobs_;
  std::size_t depth_;
  std::size_t max_depth_ = 0;
  bool closed_ = false;
};

/// Reorders completions into input-line order and writes them.  The
/// pending map is bounded: the reader waits below `backlog_cap` before
/// admitting more work, so a storm of slow early requests cannot grow the
/// response buffer without bound.
class ResponseSequencer {
public:
  ResponseSequencer(std::ostream& out, std::size_t backlog_cap)
      : out_(out), cap_(backlog_cap == 0 ? 1 : backlog_cap) {}

  void deliver(unsigned long long seq, std::string line) {
    std::unique_lock<std::mutex> lock(mu_);
    pending_.emplace(seq, std::move(line));
    while (true) {
      const auto it = pending_.find(next_);
      if (it == pending_.end()) break;
      out_ << it->second << '\n';
      pending_.erase(it);
      ++next_;
      ++written_;
    }
    out_.flush();
    lock.unlock();
    cv_.notify_all();
  }

  /// Reader-side backpressure before admitting line `seq`.
  void wait_backlog_below_cap(unsigned long long seq) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return seq < next_ + cap_; });
  }

  [[nodiscard]] long long written() const {
    std::lock_guard<std::mutex> lock(mu_);
    return written_;
  }

private:
  std::ostream& out_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<unsigned long long, std::string> pending_;
  unsigned long long next_ = 0;
  long long written_ = 0;
  std::size_t cap_;
};

SolveMode mode_from(const std::string& mode) {
  if (mode == "startup") return SolveMode::kStartup;
  if (mode == "modulo") return SolveMode::kModulo;
  if (mode == "portfolio") return SolveMode::kPortfolio;
  return SolveMode::kSchedule;
}

/// The budget-free base request — also the cache identity the fast path
/// probes and the publish path writes back under.
SolveRequest build_solve_request(const ServeRequest& r) {
  SolveRequest q;
  q.graph = parse_csdfg(r.graph);  // throws ParseError on hostile text
  q.arch = r.arch;
  q.mode = mode_from(r.mode);
  q.options.policy = r.policy == "strict" ? RemapPolicy::kWithoutRelaxation
                                          : RemapPolicy::kWithRelaxation;
  q.options.passes = r.passes;
  q.options.startup.pipelined_pes = r.pipelined;
  q.options.startup.pe_speeds = r.speeds;
  q.certify = r.certify;
  if (q.mode == SolveMode::kPortfolio) {
    q.portfolio.jobs = r.jobs;
    q.portfolio.attempts = r.attempts;
    q.portfolio.seed = r.seed;
    q.portfolio.certify_winner = r.certify;
  }
  return q;
}

/// A rung only ever narrows the request: portfolio collapses to one
/// compaction attempt, everything collapses to the start-up schedule.
void degrade_request(SolveRequest& q, ServeRung rung) {
  if (rung == ServeRung::kCompact && q.mode == SolveMode::kPortfolio)
    q.mode = SolveMode::kSchedule;
  if (rung == ServeRung::kList && q.mode != SolveMode::kStartup)
    q.mode = SolveMode::kStartup;
}

std::string_view status_token(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOk: return "ok";
    case SolveStatus::kUncertified: return "uncertified";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kInvalidRequest: return "error";
  }
  return "error";
}

/// At most this many diagnostics ride along in a response line; the full
/// bag is available through a direct (non-serve) solve.
constexpr std::size_t kMaxResponseDiagnostics = 8;

ServeResponseFields fields_from_response(const ServeRequest& r,
                                         unsigned long long seq,
                                         const SolveResponse& res,
                                         std::string_view rung) {
  ServeResponseFields f;
  f.id = r.id;
  f.seq = seq;
  f.status = std::string(status_token(res.status));
  f.degraded = std::string(rung);
  f.cache_hit = res.cache_hit;
  f.certified = res.certified;
  f.has_result = res.schedule.has_value();
  f.best_length = res.best_length;
  f.startup_length = res.startup_length;
  f.lower_bound = res.lower_bound;
  f.gap = res.gap;
  f.optimal = res.optimal;
  f.stop_reason = res.stop_reason;
  f.fingerprint = res.fingerprint;
  for (const Diagnostic& d : res.diagnostics.diagnostics()) {
    if (d.severity == Severity::kNote) continue;
    if (f.diagnostics.size() >= kMaxResponseDiagnostics) break;
    if (f.code.empty() && d.severity == Severity::kError) f.code = d.code;
    f.diagnostics.emplace_back(d.code, d.message);
  }
  if (r.emit && res.schedule.has_value()) {
    f.schedule_text = serialize_schedule(res.graph, *res.schedule,
                                         &res.retiming);
    f.graph_text = serialize_csdfg(res.graph);
  }
  return f;
}

ServeResponseFields refusal(const std::string& id, unsigned long long seq,
                            std::string_view status, std::string_view code,
                            std::string message) {
  ServeResponseFields f;
  f.id = id;
  f.seq = seq;
  f.status = std::string(status);
  f.code = std::string(code);
  f.message = std::move(message);
  return f;
}

/// Everything the reader, workers and drain supervisor share.
struct Service {
  const ServeOptions& opts;
  const BudgetClock& clock;
  const ObsContext& obs;
  WorkQueue queue;
  ResponseSequencer sequencer;
  DrainToken drain;
  std::atomic<bool> refuse_drained{false};
  std::atomic<long long> outstanding{0};
  std::atomic<long long> inflight{0};
  std::atomic<long long> max_inflight{0};
  std::atomic<long long> deadline_rejects{0};
  std::atomic<long long> degraded{0};
  std::atomic<long long> cache_hits{0};
  std::atomic<long long> worker_faults{0};
  std::atomic<long long> drain_refusals{0};
  std::atomic<long long> admitted{0};
  std::atomic<long long> shed{0};
  std::mutex latency_mu;
  SpanHistogram latency;

  Service(std::ostream& out, const ServeOptions& o, const BudgetClock& c,
          const ObsContext& ob)
      : opts(o), clock(c), obs(ob), queue(o.queue_depth),
        sequencer(out, o.queue_depth * 4 + 64) {}
};

/// The bound-only rung: the static floor of the already parsed request.
ServeResponseFields answer_bound_only(const SolveRequest& base,
                                      const std::string& id,
                                      unsigned long long seq) {
  const Topology topo = parse_topology(base.arch);
  const StoreAndForwardModel comm(topo);
  const CompositeBound bound =
      compute_bounds(base.graph, topo, comm, base.options);
  ServeResponseFields f;
  f.id = id;
  f.seq = seq;
  f.status = "uncertified";
  f.degraded = "bound-only";
  f.has_result = true;
  f.certified = false;
  f.best_length = 0;
  f.lower_bound = bound.value;
  f.gap = -1;
  f.message = "deadline too tight for any schedule; lower bound only (" +
              std::string(bound.dominant) + ")";
  return f;
}

ServeResponseFields handle_solve(Service& s, const Solver& solver,
                                 const Job& job) {
  const ServeRequest& r = job.req;
  // Cache first: a certified answer in microseconds beats every rung.
  SolveRequest base;
  try {
    base = build_solve_request(r);
  } catch (const std::exception& e) {
    return refusal(r.id, job.seq, "error", "CCS-E001", e.what());
  }
  if (std::optional<SolveResponse> cached = solver.try_cached(base)) {
    s.cache_hits.fetch_add(1, std::memory_order_relaxed);
    return fields_from_response(r, job.seq, *cached, "");
  }

  const long long remaining = job.deadline.remaining_ms();
  const ServeRung rung = pick_serve_rung(remaining, s.opts);
  if (rung == ServeRung::kBound) {
    try {
      return answer_bound_only(base, r.id, job.seq);
    } catch (const std::exception& e) {
      return refusal(r.id, job.seq, "error", "CCS-E001", e.what());
    }
  }

  SolveRequest q = base;
  degrade_request(q, rung);
  q.options.budget = job.deadline.budget(&s.drain);
  const SolveResponse res = solver.solve(q);
  // Publish only what an unbudgeted solve would return: a run to completion,
  // or a portfolio that stopped itself at its lower bound (gap 0) while
  // neither the deadline nor the drain had fired, so no budget stop did.
  const bool budget_fired =
      s.drain.fired() || (!job.deadline.unlimited() && job.deadline.expired());
  if (rung == ServeRung::kFull && res.status == SolveStatus::kOk &&
      res.certified &&
      (res.stop_reason.empty() || (res.gap == 0 && !budget_fired)))
    solver.publish(base, res);
  return fields_from_response(r, job.seq, res, serve_rung_name(rung));
}

ServeResponseFields handle_stats(Service& s, const ServeRequest& r,
                                 unsigned long long seq) {
  ServeResponseFields f;
  f.id = r.id;
  f.seq = seq;
  f.status = "ok";
  f.op = "stats";
  const SolveCache::Stats cache = SolveCache::global().stats();
  f.counters = {
      {"admitted", s.admitted.load()},
      {"answered", s.sequencer.written()},
      {"shed", s.shed.load()},
      {"deadline_rejects", s.deadline_rejects.load()},
      {"degraded_answers", s.degraded.load()},
      {"serve_cache_hits", s.cache_hits.load()},
      {"worker_faults", s.worker_faults.load()},
      {"cache_entries", static_cast<long long>(cache.entries)},
      {"cache_lookups", cache.lookups},
      {"cache_hits", cache.hits},
      {"cache_evicted", cache.evicted},
  };
  return f;
}

ServeResponseFields handle_job(Service& s, const Solver& solver,
                               const Job& job) {
  const ServeRequest& r = job.req;
  if (s.refuse_drained.load(std::memory_order_relaxed)) {
    s.drain_refusals.fetch_add(1, std::memory_order_relaxed);
    return refusal(r.id, job.seq, "rejected", "",
                   "service draining; request not attempted");
  }
  if (!job.deadline.unlimited() && job.deadline.expired()) {
    s.deadline_rejects.fetch_add(1, std::memory_order_relaxed);
    return refusal(r.id, job.seq, "rejected", "CCS-E003",
                   "deadline_ms spent while queued");
  }
  if (r.op == "sleep") {
    // Diagnostics/testing: hold this worker, in slices so a drain
    // preemption still lands promptly.
    long long left = r.sleep_ms;
    while (left > 0 && !s.drain.fired()) {
      const long long slice = left < 20 ? left : 20;
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      left -= slice;
    }
    ServeResponseFields f;
    f.id = r.id;
    f.seq = job.seq;
    f.status = "ok";
    f.op = "sleep";
    return f;
  }
  if (r.op == "stats") return handle_stats(s, r, job.seq);
  return handle_solve(s, solver, job);
}

void worker_main(Service& s) {
  const Solver solver;  // obs context deliberately empty: not thread-safe
  SpanHistogram latency;
  while (std::optional<Job> job = s.queue.pop()) {
    const long long in = s.inflight.fetch_add(1, std::memory_order_relaxed) + 1;
    long long seen = s.max_inflight.load(std::memory_order_relaxed);
    while (in > seen &&
           !s.max_inflight.compare_exchange_weak(seen, in)) {
    }
    const auto t0 = std::chrono::steady_clock::now();
    ServeResponseFields f;
    try {
      f = handle_job(s, solver, *job);
    } catch (const std::exception& e) {
      s.worker_faults.fetch_add(1, std::memory_order_relaxed);
      f = refusal(job->req.id, job->seq, "error", "CCS-E001",
                  std::string("worker fault contained: ") + e.what());
    } catch (...) {
      s.worker_faults.fetch_add(1, std::memory_order_relaxed);
      f = refusal(job->req.id, job->seq, "error", "CCS-E001",
                  "worker fault contained: unknown exception");
    }
    if (!f.degraded.empty())
      s.degraded.fetch_add(1, std::memory_order_relaxed);
    const auto dt = std::chrono::steady_clock::now() - t0;
    latency.add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
    s.sequencer.deliver(job->seq, render_serve_response(f));
    s.inflight.fetch_sub(1, std::memory_order_relaxed);
    s.outstanding.fetch_sub(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(s.latency_mu);
  s.latency.merge(latency);
}

void write_summary(std::ostream& err, const ServeSummary& sum,
                   const SpanHistogram& latency) {
  JsonWriter w;
  w.field("kind", "serve_summary")
      .field("lines", sum.lines)
      .field("admitted", sum.admitted)
      .field("answered", sum.answered)
      .field("shed", sum.shed)
      .field("parse_errors", sum.parse_errors)
      .field("deadline_rejects", sum.deadline_rejects)
      .field("degraded", sum.degraded)
      .field("cache_hits", sum.cache_hits)
      .field("worker_faults", sum.worker_faults)
      .field("drain_refusals", sum.drain_refusals)
      .field("latency_p50_us",
             static_cast<long long>(latency.quantile_ns(0.5) / 1000))
      .field("latency_p95_us",
             static_cast<long long>(latency.quantile_ns(0.95) / 1000))
      .field("stop_cause", sum.stop_cause);
  err << w.close() << '\n';
  err.flush();
}

}  // namespace

ServeRung pick_serve_rung(long long remaining_ms, const ServeOptions& opts) {
  if (remaining_ms >= opts.full_ms) return ServeRung::kFull;
  if (remaining_ms >= opts.compact_ms) return ServeRung::kCompact;
  if (remaining_ms >= opts.list_ms) return ServeRung::kList;
  return ServeRung::kBound;
}

std::string_view serve_rung_name(ServeRung rung) {
  switch (rung) {
    case ServeRung::kFull: return "";
    case ServeRung::kCompact: return "compact";
    case ServeRung::kList: return "list-schedule";
    case ServeRung::kBound: return "bound-only";
  }
  return "";
}

ServeSummary run_serve(std::istream& in, std::ostream& out,
                       std::ostream& err, const ServeOptions& opts,
                       const ObsContext& obs) {
  const BudgetClock& clock =
      opts.clock != nullptr ? *opts.clock : steady_budget_clock();
  Service s(out, opts, clock, obs);
  ServeSummary sum;

  const int jobs = opts.jobs < 1 ? 1 : opts.jobs;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i)
    workers.emplace_back([&s] { worker_main(s); });

  std::string line;
  unsigned long long seq = 0;
  while (!g_serve_stop.load(std::memory_order_relaxed) &&
         std::getline(in, line)) {
    ServeParse parse = parse_serve_request(line, opts.max_line_bytes);
    if (parse.blank) continue;
    const unsigned long long my_seq = seq++;
    ++sum.lines;
    s.sequencer.wait_backlog_below_cap(my_seq);
    if (parse.request.id.empty())
      parse.request.id = "line-" + std::to_string(my_seq + 1);
    if (!parse.ok) {
      ++sum.parse_errors;
      s.sequencer.deliver(my_seq,
                          render_serve_response(refusal(
                              parse.request.id, my_seq, "error", parse.code,
                              std::move(parse.message))));
      continue;
    }
    ServeRequest req = std::move(parse.request);
    if (req.op == "shutdown") {
      ServeResponseFields f;
      f.id = req.id;
      f.seq = my_seq;
      f.status = "ok";
      f.op = "shutdown";
      s.sequencer.deliver(my_seq, render_serve_response(f));
      sum.stop_cause = "shutdown-op";
      break;
    }
    if (req.has_deadline && req.deadline_ms <= 0) {
      s.deadline_rejects.fetch_add(1, std::memory_order_relaxed);
      s.sequencer.deliver(
          my_seq, render_serve_response(refusal(
                      req.id, my_seq, "rejected", "CCS-E003",
                      "deadline_ms already spent at admission (" +
                          std::to_string(req.deadline_ms) + " ms)")));
      continue;
    }
    if (!req.has_deadline && opts.default_deadline_ms > 0) {
      req.has_deadline = true;
      req.deadline_ms = opts.default_deadline_ms;
    }
    const long long deadline_ms = req.has_deadline ? req.deadline_ms : 0;
    Job job{my_seq, std::move(req), RequestDeadline(deadline_ms, &clock)};
    const std::string job_id = job.req.id;
    if (!s.queue.try_push(std::move(job))) {
      s.shed.fetch_add(1, std::memory_order_relaxed);
      s.sequencer.deliver(
          my_seq, render_serve_response(refusal(
                      job_id, my_seq, "overloaded", "",
                      "admission queue full (depth " +
                          std::to_string(opts.queue_depth) + ")")));
      continue;
    }
    ++sum.admitted;
    s.admitted.fetch_add(1, std::memory_order_relaxed);
    s.outstanding.fetch_add(1, std::memory_order_relaxed);
  }
  if (sum.stop_cause.empty())
    sum.stop_cause =
        g_serve_stop.load(std::memory_order_relaxed) ? "signal" : "eof";

  // Drain: stop admission, give queued and in-flight work `drain_ms` of
  // real time, then preempt stragglers and refuse whatever is still
  // queued.  Supervised on the real clock — drain is operational.
  s.queue.close();
  const auto drain_start = std::chrono::steady_clock::now();
  while (s.outstanding.load(std::memory_order_relaxed) > 0) {
    const auto spent = std::chrono::steady_clock::now() - drain_start;
    if (std::chrono::duration_cast<std::chrono::milliseconds>(spent)
            .count() >= opts.drain_ms) {
      s.refuse_drained.store(true, std::memory_order_relaxed);
      s.drain.fire();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::thread& t : workers) t.join();

  sum.shed = s.shed.load();
  sum.deadline_rejects = s.deadline_rejects.load();
  sum.degraded = s.degraded.load();
  sum.cache_hits = s.cache_hits.load();
  sum.worker_faults = s.worker_faults.load();
  sum.drain_refusals = s.drain_refusals.load();
  sum.answered = s.sequencer.written();

  s.obs.count("serve.lines", sum.lines);
  s.obs.count("serve.admitted", sum.admitted);
  s.obs.count("serve.answered", sum.answered);
  s.obs.count("serve.shed", sum.shed);
  s.obs.count("serve.parse_errors", sum.parse_errors);
  s.obs.count("serve.deadline_rejects", sum.deadline_rejects);
  s.obs.count("serve.degraded", sum.degraded);
  s.obs.count("serve.cache_hits", sum.cache_hits);
  s.obs.count("serve.worker_faults", sum.worker_faults);
  s.obs.count("serve.drain_refusals", sum.drain_refusals);
  if (s.obs.metrics != nullptr) {
    s.obs.metrics->set("serve.queue_depth.max",
                       static_cast<double>(s.queue.max_depth()));
    s.obs.metrics->set("serve.inflight.max",
                       static_cast<double>(s.max_inflight.load()));
  }
  if (s.obs.profiler != nullptr)
    s.obs.profiler->fold("serve.request", s.latency);

  write_summary(err, sum, s.latency);
  return sum;
}

void request_serve_shutdown() noexcept {
  g_serve_stop.store(true, std::memory_order_relaxed);
}

#ifndef _WIN32

namespace {

void serve_signal_handler(int /*sig*/) { request_serve_shutdown(); }

/// Minimal read/write streambuf over a connected socket fd.
class FdStreamBuf final : public std::streambuf {
public:
  explicit FdStreamBuf(int fd) : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof(out_) - 1);
  }

protected:
  int underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    ssize_t n = 0;
    do {
      n = ::read(fd_, in_, sizeof(in_));
    } while (n < 0 && errno == EINTR &&
             !g_serve_stop.load(std::memory_order_relaxed));
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(*gptr());
  }

  int overflow(int_type c) override {
    if (c != traits_type::eof()) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return flush_out() ? 0 : traits_type::eof();
  }

  int sync() override { return flush_out() ? 0 : -1; }

private:
  bool flush_out() {
    const char* p = pbase();
    while (p < pptr()) {
      const ssize_t n = ::write(fd_, p, static_cast<std::size_t>(pptr() - p));
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      p += n;
    }
    setp(out_, out_ + sizeof(out_) - 1);
    return true;
  }

  int fd_;
  char in_[4096];
  char out_[4096];
};

}  // namespace

void install_serve_signal_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = serve_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocked reads return and see the flag
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

bool run_serve_socket(const std::string& path, const ServeOptions& opts,
                      std::ostream& err, const ObsContext& obs) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    err << "serve: cannot create socket: " << std::strerror(errno) << '\n';
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    err << "serve: socket path too long: " << path << '\n';
    ::close(listener);
    return false;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 1) != 0) {
    err << "serve: cannot bind " << path << ": " << std::strerror(errno)
        << '\n';
    ::close(listener);
    return false;
  }
  bool shutdown_requested = false;
  while (!shutdown_requested &&
         !g_serve_stop.load(std::memory_order_relaxed)) {
    pollfd pfd{listener, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) continue;
    FdStreamBuf buf(conn);
    std::istream in(&buf);
    std::ostream out(&buf);
    const ServeSummary sum = run_serve(in, out, err, opts, obs);
    shutdown_requested = sum.stop_cause == "shutdown-op";
    out.flush();
    ::close(conn);
  }
  ::close(listener);
  ::unlink(path.c_str());
  return true;
}

#else  // _WIN32

void install_serve_signal_handlers() {}

bool run_serve_socket(const std::string& /*path*/,
                      const ServeOptions& /*opts*/, std::ostream& err,
                      const ObsContext& /*obs*/) {
  err << "serve: --socket is not supported on this platform\n";
  return false;
}

#endif

}  // namespace ccs
