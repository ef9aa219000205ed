// perfbench: the repository benchmark. One process runs one workload
// (ring_wide, ckpt_recover or pingpong_sweep) on the serial engine, checks
// every job's output against a reference computed outside the timed region,
// and prints one JSON result line (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny]
//
// Every layer is measured from outside: host time of the calls the
// benchmark makes that do not yield (run_job, AppFactory, App::restore,
// trace::audit), the per-layer counts the program already publishes on
// JobResult, per-job differences of the process-wide tallies
// (runtime::sim_tally(), BufferPool::global().stats()), and, with
// --trace 1, virtual-time spans derived from one extra, traced pass.
// End-to-end host times are scaled by a host-speed calibration measured
// around them (perfbench_calib).
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "apps/iter_ckpt.hpp"
#include "apps/token_ring.hpp"
#include "bench_util.hpp"
#include "common/buffer_pool.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "runtime/job.hpp"
#include "trace/audit.hpp"
#include "v2/wire.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace mpiv;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed ^ (salt * 0x9e3779b97f4a7c15ull);
  return splitmix64(x);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  Samples s;
  for (double x : v) s.add(x);
  return s.median();
}

double peak_rss_mb() {
  return static_cast<double>(bench::peak_rss_bytes()) / 1e6;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Host-speed calibration (README.md, "Host-time calibration").

/// perfbench_calib's median time on the host the bounds were set on (a
/// 4-vCPU Xeon VM). End-to-end host times are reported as measured * this /
/// the calibration measured around them. Fixed for good: changing it
/// rescales wall_s and setup_s.
constexpr double kReferenceCalibS = 0.125;

/// Runs perfbench_calib (built beside this binary) in its own process, so
/// its memory never counts toward this process's peak RSS, and returns the
/// seconds it reports, or 0 when it cannot be run.
double calibration_s() {
  static const std::string exe =
      (std::filesystem::read_symlink("/proc/self/exe").parent_path() /
       "perfbench_calib")
          .string();
  int fds[2];
  if (pipe(fds) != 0) return 0.0;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  char* argv[] = {const_cast<char*>(exe.c_str()), nullptr};
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[128];
  ssize_t n = 0;
  while (rc == 0 && (n = read(fds[0], buf, sizeof buf)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (rc != 0) return 0.0;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return 0.0;
  return std::strtod(out.c_str(), nullptr);
}

// ---------------------------------------------------------------------------
// Bench-side apps and the host-time wrapper around AppFactory/App::restore.

/// Host time of the non-yielding app calls the runtime makes on the
/// benchmark's behalf, in milliseconds per call.
struct AppTimings {
  std::vector<double> factory_ms;
  std::vector<double> restore_ms;
};

class TimedApp final : public runtime::App {
 public:
  TimedApp(std::unique_ptr<runtime::App> inner, AppTimings& timings)
      : inner_(std::move(inner)), timings_(timings) {}

  void run(sim::Context& ctx, mpi::Comm& comm) override {
    inner_->run(ctx, comm);
  }
  Buffer snapshot() override { return inner_->snapshot(); }
  void restore(ConstBytes image) override {
    auto t0 = Clock::now();
    inner_->restore(image);
    timings_.restore_ms.push_back(seconds_since(t0) * 1e3);
  }
  [[nodiscard]] Buffer result() const override { return inner_->result(); }

 private:
  std::unique_ptr<runtime::App> inner_;
  AppTimings& timings_;
};

runtime::AppFactory timed_factory(runtime::AppFactory inner,
                                  AppTimings& timings) {
  return [inner = std::move(inner), &timings](mpi::Rank rank, mpi::Rank size) {
    auto t0 = Clock::now();
    std::unique_ptr<runtime::App> app = inner(rank, size);
    timings.factory_ms.push_back(seconds_since(t0) * 1e3);
    return std::make_unique<TimedApp>(std::move(app), timings);
  };
}

/// setup_s probe: returns at once, so run_job covers only cluster build,
/// service and daemon bring-up, the peer dial and teardown.
class NullApp final : public runtime::App {
 public:
  void run(sim::Context&, mpi::Comm&) override {}
};

/// Ping-pong between ranks 0 and 1 that stamps every payload with its
/// round and direction, checks every received payload against the
/// expected content, and records each round trip in virtual time.
class CheckedPingPong final : public runtime::App {
 public:
  struct Out {
    std::vector<double> rtt_ns;  // rank 0, one per timed round trip
    bool payload_ok = true;
  };

  CheckedPingPong(std::size_t bytes, int warmup, int reps, std::uint64_t seed,
                  Out* out)
      : bytes_(bytes), warmup_(warmup), reps_(reps), seed_(seed), out_(out) {}

  void run(sim::Context& ctx, mpi::Comm& comm) override {
    const int me = comm.rank();
    if (me > 1) return;
    Buffer send = pattern(me);
    Buffer expect = pattern(1 - me);
    const std::uint64_t body_hash = body_fold(expect);
    Buffer recv(bytes_);
    for (int i = 0; i < warmup_ + reps_; ++i) {
      if (me == 0) {
        stamp(send, i, 0);
        SimTime t0 = ctx.now();
        comm.send(ctx, send, 1, kTag);
        comm.recv(ctx, recv, 1, kTag);
        if (i >= warmup_ && out_ != nullptr) {
          out_->rtt_ns.push_back(static_cast<double>(ctx.now() - t0));
        }
        check(recv, i, 1, body_hash);
      } else {
        comm.recv(ctx, recv, 0, kTag);
        check(recv, i, 0, body_hash);
        stamp(send, i, 1);
        comm.send(ctx, send, 0, kTag);
      }
    }
  }

  /// Number of received payloads that matched (warmup included).
  [[nodiscard]] Buffer result() const override {
    Writer w;
    w.u64(checked_);
    return w.take();
  }

 private:
  static constexpr mpi::Tag kTag = 5;
  static constexpr std::size_t kStamp = sizeof(std::uint64_t);

  /// Seeded content per direction, generated a word at a time.
  [[nodiscard]] Buffer pattern(int from) const {
    Buffer b(bytes_);
    std::uint64_t x = mix_seed(seed_, 100 + static_cast<std::uint64_t>(from));
    for (std::size_t i = 0; i < b.size(); i += 8) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      std::memcpy(b.data() + i, &x, std::min<std::size_t>(8, b.size() - i));
    }
    return b;
  }

  [[nodiscard]] std::uint64_t stamp_word(int round, int from) const {
    return mix_seed(seed_, static_cast<std::uint64_t>(round) * 2 +
                               static_cast<std::uint64_t>(from));
  }

  void stamp(Buffer& b, int round, int from) const {
    std::uint64_t w = stamp_word(round, from);
    std::memcpy(b.data(), &w, std::min(kStamp, b.size()));
  }

  /// Fold of everything past the stamp: constant per direction.
  [[nodiscard]] static std::uint64_t body_fold(ConstBytes b) {
    return b.size() > kStamp ? hash64(b.subspan(kStamp)) : 0;
  }

  void check(ConstBytes got, int round, int from, std::uint64_t body_hash) {
    std::uint64_t want = stamp_word(round, from);
    bool ok =
        std::memcmp(got.data(), &want, std::min(kStamp, got.size())) == 0 &&
        body_fold(got) == body_hash;
    if (ok) {
      ++checked_;
    } else if (out_ != nullptr) {
      out_->payload_ok = false;
    }
  }

  std::size_t bytes_;
  int warmup_;
  int reps_;
  std::uint64_t seed_;
  Out* out_;
  std::uint64_t checked_ = 0;
};

// ---------------------------------------------------------------------------
// Measured jobs.

/// One run_job with its host time and the per-job differences of the
/// process-wide tallies.
struct JobRun {
  runtime::JobResult res;
  bool threw = false;
  std::string error;
  double wall_s = 0;
  std::int64_t tally_events = 0;
  std::int64_t tally_fiber_switches = 0;
  std::int64_t tally_wall_ns = 0;
  std::uint64_t pool_rents = 0;
  std::uint64_t pool_hits = 0;
};

JobRun run_measured(const runtime::JobConfig& cfg,
                    const runtime::AppFactory& factory) {
  JobRun out;
  const CounterRegistry before = runtime::sim_tally();
  const BufferPool::Stats pool_before = BufferPool::global().stats();
  auto t0 = Clock::now();
  try {
    out.res = runtime::run_job(cfg, factory);
  } catch (const std::exception& e) {
    out.threw = true;
    out.error = e.what();
  }
  out.wall_s = seconds_since(t0);
  const CounterRegistry& after = runtime::sim_tally();
  out.tally_events =
      after.get("sim_events_executed") - before.get("sim_events_executed");
  out.tally_fiber_switches =
      after.get("sim_fiber_switches") - before.get("sim_fiber_switches");
  out.tally_wall_ns = after.get("host_wall_ns") - before.get("host_wall_ns");
  const BufferPool::Stats pool_after = BufferPool::global().stats();
  out.pool_rents = pool_after.rents - pool_before.rents;
  out.pool_hits = pool_after.rent_hits - pool_before.rent_hits;
  return out;
}

/// One job of a pass: its configuration, its (timed) app factory, and the
/// check of its result against the reference.
struct JobSpec {
  std::string label;
  runtime::JobConfig cfg;
  std::function<runtime::AppFactory()> make_factory;
  std::function<bool(const JobRun&)> check;
  // Per-job bench-side state, reset before every run.
  std::function<void()> reset;
};

runtime::JobConfig base_config(int nprocs, std::uint64_t seed) {
  runtime::JobConfig cfg;
  cfg.nprocs = nprocs;
  cfg.device = runtime::DeviceKind::kV2;
  cfg.protocol = v2::Protocol::kPessimistic;
  cfg.sim_workers = 1;  // the serial engine users and tests get by default
  cfg.seed = seed;
  cfg.time_limit = seconds(3600);
  return cfg;
}

bool ok_job(const JobRun& j) {
  return !j.threw && j.res.success && j.res.el_stores_consistent;
}

// ---------------------------------------------------------------------------
// Result line.

struct Metric {
  double value;
  std::string unit;
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{std::isfinite(value) ? value : 0.0, unit};
    if (!std::isfinite(value)) nonfinite_ = true;
  }
  [[nodiscard]] bool nonfinite() const { return nonfinite_; }

  void print(bool correct, long attempted, long failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::map<std::string, Metric> metrics_;
  bool nonfinite_ = false;
};

// ---------------------------------------------------------------------------
// Workloads.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
};

/// Everything a workload contributes to a run.
struct Workload {
  /// Jobs of one measured pass (V2, untraced). A run repeats whole passes.
  std::vector<JobSpec> pass;
  /// Config of the setup_s probe (the workload's own, with NullApp).
  runtime::JobConfig setup_cfg;
  /// Reference-only P4 jobs for the per-layer p4.* rows (trace runs).
  std::vector<JobSpec> p4_reference;
  AppTimings timings;
  // Workload-specific virtual-time results, filled by the checks.
  std::vector<double> oneway_ns;  // 0 B round trips / 2
  double bandwidth_mbps = 0;
  std::vector<double> p4_oneway_ns;
  double p4_bandwidth_mbps = 0;
  std::vector<std::uint64_t> app_ckpt_stall_ns;  // per rank (ckpt_recover)
};

// ring_wide -----------------------------------------------------------------

void build_ring_wide(Workload& w, const Args& a) {
  const int nprocs = a.tiny ? 16 : 512;
  const int rounds = a.tiny ? 4 : 100;
  const std::size_t payload = 1024;
  // Heterogeneous nodes: each rank's compute between receiving and
  // forwarding the token is drawn from the seed (0-20 us).
  auto compute_of = [seed = a.seed](mpi::Rank r) {
    Rng rng(mix_seed(seed, 1000 + static_cast<std::uint64_t>(r)));
    return static_cast<SimDuration>(rng.below(20001));
  };
  auto factory = [rounds, payload, compute_of](mpi::Rank r, mpi::Rank) {
    return std::make_unique<apps::TokenRingApp>(rounds, payload, compute_of(r));
  };

  runtime::JobConfig cfg = base_config(nprocs, a.seed);
  cfg.n_event_loggers = 1;
  w.setup_cfg = cfg;

  // Reference: the same ring on P4 (no logging, no daemons), run once.
  runtime::JobConfig p4 = cfg;
  p4.device = runtime::DeviceKind::kP4;
  JobRun ref = run_measured(p4, factory);
  if (!ok_job(ref)) throw std::runtime_error("ring_wide: P4 reference failed");
  auto expected = std::make_shared<std::vector<Buffer>>();
  for (const auto& r : ref.res.ranks) expected->push_back(r.output);

  JobSpec job;
  job.label = "ring";
  job.cfg = cfg;
  job.make_factory = [&w, factory] {
    return timed_factory(factory, w.timings);
  };
  job.check = [expected](const JobRun& j) {
    if (!ok_job(j) || j.res.ranks.size() != expected->size()) return false;
    for (std::size_t r = 0; r < expected->size(); ++r) {
      if (!j.res.ranks[r].finished || j.res.ranks[r].output != (*expected)[r]) {
        return false;
      }
    }
    return true;
  };
  w.pass.push_back(std::move(job));
}

// ckpt_recover --------------------------------------------------------------

void build_ckpt_recover(Workload& w, const Args& a) {
  apps::IterCkptApp::Params params;
  params.iters = a.tiny ? 60 : 400;
  params.static_bytes = (a.tiny ? 128 : 1024) * 1024;
  params.dynamic_bytes = 64 * 1024;
  params.token_bytes = 64 * 1024;
  params.compute_per_iter = milliseconds(5);
  const int nprocs = 8;
  const int kills = a.tiny ? 1 : 4;  // one single-kill job per kill

  runtime::JobConfig cfg = base_config(nprocs, a.seed);
  cfg.checkpointing = true;
  cfg.ckpt_period = 0;  // continuous
  cfg.ckpt_backend = v2::CkptBackend::kTiered;
  cfg.n_ckpt_servers = 2;
  cfg.ckpt_replication = 2;
  cfg.el_replication = 3;
  w.setup_cfg = cfg;
  w.app_ckpt_stall_ns.assign(nprocs, 0);

  auto plain = [params](mpi::Rank r, mpi::Rank) {
    return std::make_unique<apps::IterCkptApp>(r, params);
  };
  // Reference: the fault-free run of the same config, traced for the
  // instants at which each rank's checkpoints became stable.
  runtime::JobConfig ref_cfg = cfg;
  ref_cfg.trace.enabled = true;
  ref_cfg.trace.ring_capacity = std::size_t{1} << 20;
  JobRun ref = run_measured(ref_cfg, plain);
  if (!ok_job(ref) || ref.res.restarts != 0 || ref.res.trace == nullptr) {
    throw std::runtime_error("ckpt_recover: fault-free reference failed");
  }
  auto expected = std::make_shared<std::vector<Buffer>>();
  for (const auto& r : ref.res.ranks) expected->push_back(r.output);
  // Kill anchors: checkpoints captured in the middle of the run that were
  // stable within rework of their capture, with no later capture of the
  // same rank before capture + rework. A kill at capture + rework then
  // restores exactly that image and re-executes exactly rework of the
  // victim's progress, whichever anchor the seed picks.
  const SimDuration rework = milliseconds(a.tiny ? 600 : 2500);
  const auto makespan = static_cast<double>(ref.res.makespan);
  std::map<std::pair<int, std::uint64_t>, SimTime> begun;
  std::vector<std::vector<SimTime>> captures(nprocs);  // in time order
  std::vector<std::vector<std::pair<SimTime, SimTime>>> stable(nprocs);
  for (const trace::TraceEvent& e : ref.res.trace->merged()) {
    if (e.role != trace::Role::kDaemon) continue;
    auto r = static_cast<std::size_t>(e.id);
    if (e.kind == trace::Kind::kCkptBegin) {
      begun[{e.id, e.n}] = e.t;
      captures[r].push_back(e.t);
    } else if (e.kind == trace::Kind::kCkptStable) {
      auto it = begun.find({e.id, e.n});
      if (it != begun.end()) stable[r].emplace_back(it->second, e.t);
    }
  }
  std::vector<std::pair<mpi::Rank, SimTime>> anchors;
  for (int r = 0; r < nprocs; ++r) {
    const auto& caps = captures[static_cast<std::size_t>(r)];
    for (const auto& [begin, done] : stable[static_cast<std::size_t>(r)]) {
      const SimTime kill_at = begin + rework;
      bool in_window = begin >= static_cast<SimTime>(0.1 * makespan) &&
                       kill_at <= static_cast<SimTime>(0.9 * makespan);
      bool next_later = std::none_of(caps.begin(), caps.end(), [&](SimTime c) {
        return c > begin && c <= kill_at;
      });
      if (in_window && done < kill_at && next_later) {
        anchors.emplace_back(r, kill_at);
      }
    }
  }
  if (anchors.empty()) {
    throw std::runtime_error("ckpt_recover: no checkpoint to anchor kills");
  }

  // Each job kills one seeded rank at one seeded anchor.
  Rng rng(mix_seed(a.seed, 2000));
  for (int p = 0; p < kills; ++p) {
    const auto [victim, kill_at] = anchors[rng.below(anchors.size())];
    JobSpec job;
    job.label = "faulted" + std::to_string(p);
    job.cfg = cfg;
    job.cfg.fault_plan = faults::FaultPlan::simultaneous(kill_at, {victim});
    job.reset = [&w] {
      std::fill(w.app_ckpt_stall_ns.begin(), w.app_ckpt_stall_ns.end(), 0);
    };
    job.make_factory = [&w, params] {
      runtime::AppFactory f = [&w, params](mpi::Rank r, mpi::Rank) {
        return std::make_unique<apps::IterCkptApp>(
            r, params, &w.app_ckpt_stall_ns[static_cast<std::size_t>(r)]);
      };
      return timed_factory(f, w.timings);
    };
    job.check = [expected](const JobRun& j) {
      if (!ok_job(j) || j.res.restarts == 0) return false;
      for (std::size_t r = 0; r < expected->size(); ++r) {
        if (j.res.ranks[r].output != (*expected)[r]) return false;
      }
      return true;
    };
    w.pass.push_back(std::move(job));
  }
}

// pingpong_sweep ------------------------------------------------------------

void build_pingpong(Workload& w, const Args& a) {
  // The latency point is a short message of 0-15 B (0 B in the paper). The
  // bulk sizes stay fixed: a seeded tail past 64 KiB or 1 MiB changes which
  // allocations the allocator serves from fresh pages, and moved the host
  // time of a pass by up to 60% from seed to seed.
  Rng rng(mix_seed(a.seed, 3000));
  const std::size_t small = rng.below(16);
  const std::size_t mid = 64 * 1024;
  const std::size_t big = 1024 * 1024;
  struct Point {
    const char* label;
    std::size_t bytes;
    int reps;
  };
  const std::vector<Point> points = {
      {"small", small, a.tiny ? 200 : 2000},
      {"64k", mid, a.tiny ? 10 : 200},
      {"1m", big, a.tiny ? 5 : 100},
  };

  runtime::JobConfig cfg = base_config(2, a.seed);
  w.setup_cfg = cfg;

  static constexpr int kWarmup = 2;  // untimed round trips per sweep point
  auto add_points = [&](runtime::DeviceKind dev, std::vector<JobSpec>& into) {
    for (const Point& pt : points) {
      auto out = std::make_shared<CheckedPingPong::Out>();
      JobSpec job;
      job.label = std::string(runtime::device_name(dev)) + "/" + pt.label;
      job.cfg = cfg;
      job.cfg.device = dev;
      const std::size_t bytes = pt.bytes;
      const int reps = pt.reps;
      const std::uint64_t seed = a.seed;
      const bool is_small = std::string(pt.label) == "small";
      const bool is_big = std::string(pt.label) == "1m";
      const bool v2 = dev == runtime::DeviceKind::kV2;
      job.reset = [out] { *out = CheckedPingPong::Out{}; };
      job.make_factory = [&w, out, bytes, reps, seed] {
        runtime::AppFactory f = [out, bytes, reps, seed](mpi::Rank r,
                                                         mpi::Rank) {
          return std::make_unique<CheckedPingPong>(
              bytes, kWarmup, reps, seed, r == 0 ? out.get() : nullptr);
        };
        return timed_factory(f, w.timings);
      };
      job.check = [&w, out, reps, bytes, is_small, is_big,
                   v2](const JobRun& j) {
        // Both ranks count the payloads that matched.
        if (!ok_job(j) || !out->payload_ok ||
            out->rtt_ns.size() != static_cast<std::size_t>(reps)) {
          return false;
        }
        for (const auto& r : j.res.ranks) {
          Reader rd(r.output);
          if (rd.u64() != static_cast<std::uint64_t>(reps + kWarmup)) {
            return false;
          }
        }
        if (is_small) {
          std::vector<double>& dst = v2 ? w.oneway_ns : w.p4_oneway_ns;
          dst.clear();
          for (double rtt : out->rtt_ns) dst.push_back(rtt / 2.0);
        }
        if (is_big) {
          double oneway_s = median(out->rtt_ns) / 2.0 / 1e9;
          (v2 ? w.bandwidth_mbps : w.p4_bandwidth_mbps) =
              static_cast<double>(bytes) / oneway_s / 1e6;
        }
        return true;
      };
      into.push_back(std::move(job));
    }
  };
  add_points(runtime::DeviceKind::kV2, w.pass);
  add_points(runtime::DeviceKind::kP4, w.p4_reference);
}

// ---------------------------------------------------------------------------
// Traced pass: virtual-time spans from the merged TraceBook.

struct TraceDerived {
  Samples stall_us;
  Samples ckpt_stable_ms;
  double phase_ms[4] = {0, 0, 0, 0};  // indexed by trace::RestartPhase
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  double audit_s = 0;
};

void derive_spans(const std::vector<trace::TraceEvent>& evs, TraceDerived& d) {
  using K = trace::Kind;
  // Keys: (rank, incarnation, peer, send clock) for stalls; (rank,
  // incarnation, seq) for checkpoints; (rank, incarnation, phase) for
  // restart phases.
  std::map<std::tuple<int, int, int, std::int64_t>, SimTime> stall_open;
  std::map<std::tuple<int, int, std::uint64_t>, SimTime> ckpt_open;
  std::map<std::tuple<int, int, std::int64_t>, SimTime> phase_open;
  for (const trace::TraceEvent& e : evs) {
    if (e.role != trace::Role::kDaemon) continue;
    switch (e.kind) {
      case K::kStallStart:
        stall_open[{e.id, e.incarnation, e.peer, e.c1}] = e.t;
        break;
      case K::kStallEnd: {
        auto it = stall_open.find({e.id, e.incarnation, e.peer, e.c1});
        if (it != stall_open.end()) {
          d.stall_us.add(static_cast<double>(e.t - it->second) / 1e3);
          stall_open.erase(it);
        }
        break;
      }
      case K::kCkptBegin:
        ckpt_open[{e.id, e.incarnation, e.n}] = e.t;
        break;
      case K::kCkptStable: {
        auto it = ckpt_open.find({e.id, e.incarnation, e.n});
        if (it != ckpt_open.end()) {
          d.ckpt_stable_ms.add(static_cast<double>(e.t - it->second) / 1e6);
          ckpt_open.erase(it);
        }
        break;
      }
      case K::kRestartPhaseBegin:
        phase_open[{e.id, e.incarnation, e.c3}] = e.t;
        break;
      case K::kRestartPhaseEnd: {
        auto it = phase_open.find({e.id, e.incarnation, e.c3});
        if (it != phase_open.end() && e.c3 >= 1 && e.c3 <= 3) {
          d.phase_ms[e.c3] += static_cast<double>(e.t - it->second) / 1e6;
          phase_open.erase(it);
        }
        break;
      }
      default:
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-layer rows from the counts JobResult publishes.

/// Wire traffic class of a server port: daemon ports carry app messages and
/// replica traffic, the logger port EL traffic, the stripe-server and
/// scheduler ports checkpoint traffic.
const char* port_class(std::int32_t port) {
  if (port == v2::kEventLoggerPort) return "el";
  if (port == v2::kCkptServerPort || port == v2::kSchedulerPort) return "ckpt";
  if (port >= v2::kDaemonPortBase && port < v2::kEventLoggerPort) return "peer";
  return "other";
}

/// Sums (or, for peaks and the slowest restart, maxima) over a pass.
void add_count_rows(Report& rep, const std::vector<JobRun>& pass) {
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  double sent = 0, recv = 0, quorum_waits = 0, el_appends = 0;
  double blocks = 0, copied = 0, time_share = 0;
  double ckpt_sent = 0, ckpt_dedup = 0, replayed = 0, batches = 0, batched = 0;
  double ttfs_ns = 0, download_ns = 0, replay_ns = 0, recover_ns = 0;
  double ckpts = 0, ckpt_bytes = 0, el_events = 0, retries = 0;
  double events = 0, switches = 0, live_peak = 0, stack_peak = 0;
  double rents = 0, hits = 0;
  std::map<std::string, double> wire_msgs, wire_bytes;
  for (const JobRun& j : pass) {
    const runtime::JobResult& r = j.res;
    const v2::DaemonStats& s = r.daemon_stats;
    sent += d(s.sent_msgs);
    recv += d(s.recv_msgs);
    quorum_waits += d(s.el_quorum_waits);
    el_appends += d(s.el_appends);
    copied += d(s.bytes_copied);
    ckpt_sent += d(s.ckpt_bytes_sent + s.replica_push_bytes);
    ckpt_dedup += d(s.ckpt_bytes_deduped + s.replica_push_dedup_bytes);
    replayed += d(s.replayed_bytes);
    batches += d(s.resend_batches);
    batched += d(s.resend_batched_msgs);
    ttfs_ns = std::max(ttfs_ns, d(s.restart_ttfs_ns));
    download_ns = std::max(download_ns, d(s.restart_download_ns));
    replay_ns = std::max(replay_ns, d(s.restart_replay_ns));
    recover_ns = std::max(recover_ns, d(s.restart_recover_ns));
    retries += d(s.el_replica_retries);
    ckpts += d(r.checkpoints_stored);
    ckpt_bytes += d(r.ckpt_stored_bytes);
    el_events += d(r.el_events_stored);
    double mpi_time = 0;
    for (const runtime::RankResult& rank : r.ranks) {
      blocks += d(rank.copies.blocks_sent);
      copied += d(rank.copies.bytes_copied);
      mpi_time += static_cast<double>(rank.profiler.total_mpi_time());
    }
    time_share += ratio(mpi_time / static_cast<double>(r.ranks.size()),
                        static_cast<double>(r.makespan));
    events += static_cast<double>(j.tally_events);
    switches += static_cast<double>(j.tally_fiber_switches);
    live_peak = std::max(
        live_peak, static_cast<double>(r.counters.get("sim_live_events_peak")));
    stack_peak = std::max(
        stack_peak,
        static_cast<double>(r.counters.get("sim_fiber_stack_peak_bytes")));
    rents += d(j.pool_rents);
    hits += d(j.pool_hits);
    for (const auto& [port, n] : r.wire.messages_by_port) {
      wire_msgs[port_class(port)] += d(n);
      wire_bytes[port_class(port)] += d(r.wire.bytes_by_port.at(port));
    }
  }
  const double njobs =
      static_cast<double>(std::max<std::size_t>(1, pass.size()));

  rep.set("sim.events", events, "count");
  rep.set("sim.fiber_switches", switches, "count");
  rep.set("sim.live_events_peak", live_peak, "count");
  rep.set("sim.fiber_stack_peak_mb", stack_peak / 1e6, "MB");
  for (const std::string cls : {"peer", "el", "ckpt"}) {
    rep.set("net.wire_msgs." + cls, wire_msgs[cls], "count");
    rep.set("net.wire_mb." + cls, wire_bytes[cls] / 1e6, "MB");
  }
  rep.set("mpi.time_share", time_share / njobs, "ratio");
  rep.set("mpi.copied_bytes_per_block", ratio(copied, blocks), "B");
  rep.set("v2.quorum_waits_per_send", ratio(quorum_waits, sent), "ratio");
  rep.set("v2.el_appends_per_delivery", ratio(el_appends, recv), "ratio");
  rep.set("v2.ckpt_mb_sent", ckpt_sent / 1e6, "MB");
  rep.set("v2.ckpt_dedup_ratio", ratio(ckpt_dedup, ckpt_sent + ckpt_dedup),
          "ratio");
  rep.set("v2.restart_ttfs_ms", ttfs_ns / 1e6, "ms");
  rep.set("v2.restart_download_ms", download_ns / 1e6, "ms");
  rep.set("v2.restart_replay_ms", replay_ns / 1e6, "ms");
  rep.set("v2.replayed_mb", replayed / 1e6, "MB");
  rep.set("v2.resend_batch_factor", ratio(batched, batches), "ratio");
  rep.set("services.checkpoints_stored", ckpts, "count");
  rep.set("services.ckpt_stored_mb", ckpt_bytes / 1e6, "MB");
  rep.set("services.el_events_stored", el_events, "count");
  rep.set("services.el_replica_retries", retries, "count");
  rep.set("common.pool_hit_rate", ratio(hits, rents), "ratio");
  rep.set("recover_ms", recover_ns / 1e6, "ms");
}

// ---------------------------------------------------------------------------

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = next();
    else if (k == "--seed") a.seed = std::stoull(next());
    else if (k == "--seconds") a.seconds = std::stod(next());
    else if (k == "--trace") a.trace = std::stoi(next()) != 0;
    else if (k == "--tiny") a.tiny = true;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    a = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  // The thread backend changes what host time measures; the benchmark
  // pins the fiber backend and the serial engine.
  if (std::getenv("MPIV_SIM_THREADS") != nullptr) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with MPIV_SIM_THREADS set\n");
    return 2;
  }

  Workload w;
  try {
    if (a.workload == "ring_wide") build_ring_wide(w, a);
    else if (a.workload == "ckpt_recover") build_ckpt_recover(w, a);
    else if (a.workload == "pingpong_sweep") build_pingpong(w, a);
    else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   a.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: reference run failed: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "# perfbench workload=%s seed=%llu build=%s trace=%d\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               PERFBENCH_BUILD_TYPE, a.trace ? 1 : 0);

  long attempted = 0;
  long failed = 0;
  auto run_checked = [&](JobSpec& job, bool traced) {
    if (job.reset) job.reset();
    runtime::JobConfig cfg = job.cfg;
    if (traced) {
      cfg.trace.enabled = true;
      cfg.trace.ring_capacity = std::size_t{1} << 20;
    }
    JobRun run = run_measured(cfg, job.make_factory());
    ++attempted;
    if (!job.check(run)) {
      ++failed;
      std::fprintf(stderr, "# FAILED job %s%s%s\n", job.label.c_str(),
                   run.threw ? ": " : "", run.error.c_str());
    }
    return run;
  };

  // Calibration samples bracket the set-up probes and every pass; each
  // host time is scaled by the mean of the two samples around it. A sample
  // is the median of three runs of the task.
  std::vector<double> calib_s;
  auto calibrate = [&] {
    std::vector<double> runs;
    for (int i = 0; i < 3; ++i) {
      double c = calibration_s();
      if (c <= 0.0) {
        std::fprintf(stderr, "perfbench: perfbench_calib failed\n");
        std::exit(1);
      }
      runs.push_back(c);
    }
    calib_s.push_back(median(runs));
  };
  auto scale_since = [&](std::size_t i) {
    return kReferenceCalibS / (0.5 * (calib_s[i] + calib_s.back()));
  };

  // setup_s: the workload's own config with an app that returns at once,
  // repeated until both the minimum count and a second of set-up are spent.
  std::vector<double> setup_s;
  double setup_scale = 1.0;
  {
    calibrate();
    const int min_repeats = a.tiny ? 1 : 3;
    auto t_setup = Clock::now();
    while (static_cast<int>(setup_s.size()) < min_repeats ||
           (seconds_since(t_setup) < 1.0 && setup_s.size() < 1000)) {
      JobRun s = run_measured(w.setup_cfg, [](mpi::Rank, mpi::Rank) {
        return std::make_unique<NullApp>();
      });
      ++attempted;
      if (!ok_job(s)) ++failed;
      setup_s.push_back(s.wall_s);
      if (a.tiny) break;
    }
    calibrate();
    setup_scale = scale_since(calib_s.size() - 2);
  }

  // Measured passes: whole passes until the time budget is spent.
  std::vector<JobRun> first_pass;
  std::vector<double> pass_wall_s;  // raw
  std::vector<double> pass_scaled_s;  // in reference-host seconds
  std::vector<std::vector<double>> job_wall_s(w.pass.size());  // per pass slot
  std::vector<double> pass_events_per_s;
  double first_pass_stall_ms = 0;  // IterCkptApp stall accumulators
  double rss_mb = 0;  // after the first pass, so the pass count cannot move it
  auto t_measure = Clock::now();
  int passes = 0;
  do {
    double events = 0;
    double wall = 0;
    double pass_wall = 0;
    for (std::size_t i = 0; i < w.pass.size(); ++i) {
      JobSpec& job = w.pass[i];
      JobRun run = run_checked(job, false);
      job_wall_s[i].push_back(run.wall_s);
      pass_wall += run.wall_s;
      events += static_cast<double>(run.tally_events);
      wall += static_cast<double>(run.tally_wall_ns) / 1e9;
      if (passes == 0) {
        std::fprintf(
            stderr,
            "# job %s wall_s=%.3f makespan_s=%.6f restarts=%d events=%lld\n",
            job.label.c_str(), run.wall_s, to_seconds(run.res.makespan),
            run.res.restarts, static_cast<long long>(run.tally_events));
        for (std::uint64_t ns : w.app_ckpt_stall_ns) {
          first_pass_stall_ms += static_cast<double>(ns) / 1e6;
        }
        first_pass.push_back(std::move(run));
      }
    }
    pass_events_per_s.push_back(ratio(events, wall));
    pass_wall_s.push_back(pass_wall);
    if (passes == 0) rss_mb = peak_rss_mb();
    calibrate();
    pass_scaled_s.push_back(pass_wall * scale_since(calib_s.size() - 2));
    ++passes;
  } while (seconds_since(t_measure) < a.seconds);
  const double wall_s = median(pass_scaled_s);
  const double setup_scaled_s = median(setup_s) * setup_scale;

  Report rep;
  if (!a.trace) {
    // Mean virtual makespan over the jobs of a pass (every pass repeats
    // the same virtual times).
    double makespan = 0;
    for (const JobRun& j : first_pass) makespan += to_seconds(j.res.makespan);
    makespan /=
        static_cast<double>(std::max<std::size_t>(1, first_pass.size()));
    rep.set("wall_s", wall_s, "s");
    rep.set("setup_s", setup_scaled_s, "s");
    rep.set("peak_rss_mb", rss_mb, "MB");
    rep.set("makespan_s", makespan, "s");
  } else {
    // Counts come from the first untraced pass (every pass repeats them);
    // host rates are medians over passes.
    add_count_rows(rep, first_pass);
    rep.set("host.wall_raw_s", median(pass_wall_s), "s");
    rep.set("host.setup_raw_s", median(setup_s), "s");
    rep.set("host.calib_s", median(calib_s), "s");
    rep.set("sim.events_per_host_s", median(pass_events_per_s), "1/s");
    rep.set("v2.app_ckpt_stall_ms", first_pass_stall_ms, "ms");
    rep.set("apps.factory_ms", median(w.timings.factory_ms), "ms");
    rep.set("apps.restore_ms", median(w.timings.restore_ms), "ms");

    // Workload-specific paper numbers (zero where the workload has none).
    Samples oneway;
    for (double ns : w.oneway_ns) oneway.add(ns / 1e3);
    rep.set("oneway_p50_us", oneway.median(), "us");
    rep.set("oneway_p99_us", oneway.percentile(99.0), "us");
    rep.set("bandwidth_mbps", w.bandwidth_mbps, "MB/s");

    // P4 reference sweep (pingpong_sweep only).
    for (JobSpec& job : w.p4_reference) run_checked(job, false);
    Samples p4_oneway;
    for (double ns : w.p4_oneway_ns) p4_oneway.add(ns / 1e3);
    rep.set("p4.oneway_p50_us", p4_oneway.median(), "us");
    rep.set("p4.bandwidth_mbps", w.p4_bandwidth_mbps, "MB/s");
    rep.set("v2.latency_overhead_x",
            ratio(oneway.median(), p4_oneway.median()), "x");

    // Traced pass: the same jobs once more with tracing on.
    TraceDerived td;
    std::vector<double> overhead;
    for (std::size_t i = 0; i < w.pass.size(); ++i) {
      JobRun run = run_checked(w.pass[i], true);
      overhead.push_back(ratio(run.wall_s, median(job_wall_s[i])));
      if (run.res.trace == nullptr) {  // tracing compiled out
        ++failed;
        continue;
      }
      const trace::TraceBook& book = *run.res.trace;
      std::vector<trace::TraceEvent> evs = book.merged();
      td.events += book.total_recorded();
      td.dropped += book.total_dropped();
      auto t0 = Clock::now();
      trace::AuditReport report = trace::audit(evs, book.total_dropped());
      td.audit_s += seconds_since(t0);
      if (!report.pass) {
        ++failed;
        std::fprintf(stderr, "# AUDIT %s: %s\n", w.pass[i].label.c_str(),
                     report.summary().c_str());
      }
      derive_spans(evs, td);
    }
    rep.set("v2.waitlogged_stall_us.p50", td.stall_us.median(), "us");
    rep.set("v2.waitlogged_stall_us.p99", td.stall_us.percentile(99.0), "us");
    rep.set("v2.ckpt_stable_ms.p50", td.ckpt_stable_ms.median(), "ms");
    rep.set("v2.ckpt_stable_ms.p99", td.ckpt_stable_ms.percentile(99.0), "ms");
    rep.set("v2.restart_fetch_phase_ms", td.phase_ms[1], "ms");
    rep.set("v2.restart_download_phase_ms", td.phase_ms[2], "ms");
    rep.set("v2.restart_replay_phase_ms", td.phase_ms[3], "ms");
    rep.set("trace.events", static_cast<double>(td.events), "count");
    rep.set("trace.dropped", static_cast<double>(td.dropped), "count");
    rep.set("trace.audit_s", td.audit_s, "s");
    rep.set("trace.overhead_x", median(overhead), "x");
    rep.set("failed_share",
            ratio(static_cast<double>(failed), static_cast<double>(attempted)),
            "ratio");
  }

  std::fprintf(stderr,
               "# passes=%d jobs=%ld failed=%ld wall_s=%.4f (raw %.4f) "
               "setup_s=%.6f (raw %.6f) calib_s=%.4f rss_mb=%.1f\n",
               passes, attempted, failed, wall_s, median(pass_wall_s),
               setup_scaled_s, median(setup_s), median(calib_s), rss_mb);
  const bool correct = failed == 0 && !rep.nonfinite();
  rep.print(correct, attempted, failed);
  return 0;
}
