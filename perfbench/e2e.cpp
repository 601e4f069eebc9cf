// End-to-end benchmark harness: one workload per process.
//
//   mcfair_e2e --workload NAME --seed N --seconds S --trace 0|1
//              [--size full|small] [--work-dir DIR] [--trace-out FILE]
//
// Workloads (README.md in this directory says why each exists):
//   mesh-churn        routed BA mesh, churn, fair epochs; serial engine
//   mesh-churn-4t     the same scenario at engineThreads = 4 (epoch engine)
//   sharded-lanes     64 disjoint bottlenecks on the lanes engine
//   service-mix       FairshareService closed loop over the mesh network
//
// The program times only calls into the library's public entry points.
// Set-up (scenario expansion; for the service also construction and the
// first cold query) is repeated and reported as a median. The measured
// phase repeats a fixed unit of work -- one solve -> simulate -> report
// pipeline, or one round of service operations -- a number of times fixed
// by the workload and --seconds (never by the clock), so every count the
// run prints repeats exactly for a given seed. Output checks run outside
// the timed calls. The last stdout line is one JSON object carrying every
// metric with its unit, the determinism counts and the result digest.
//
// With --trace 1, measured repetitions alternate between traced (spans
// recorded around every public call) and untraced; per-layer metrics are
// computed from the spans, and the difference of the two medians is the
// tracing overhead. Spans and counts are written to --trace-out at exit.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "fairness/maxmin.hpp"
#include "fairness/sampled.hpp"
#include "net/network.hpp"
#include "serve/journal.hpp"
#include "serve/service.hpp"
#include "sim/closed_loop.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace {

using namespace mcfair;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------- clocks

std::int64_t wallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ---------------------------------------------------------------- tracing

// In-memory spans around public calls. Every call is timed; a span is
// kept only while recording is on, so untraced repetitions pay for two
// clock reads per call and nothing else.
struct Span {
  const char* name;
  std::int64_t startNs;
  std::int64_t endNs;
  int parent;
  int run;
};

class Tracer {
 public:
  bool recording = false;
  int run = 0;

  // Opens a span as a child of the innermost open one; returns its index
  // (-1 when not recording).
  int open(const char* name, std::int64_t start) {
    if (!recording) return -1;
    spans_.push_back(Span{name, start, start, current_, run});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int idx, std::int64_t end) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].endNs = end;
    current_ = spans_[static_cast<std::size_t>(idx)].parent;
  }

  // Durations (seconds) of every recorded span with this name.
  std::vector<double> seconds(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(1e-9 * static_cast<double>(s.endNs - s.startNs));
    }
    return out;
  }
  double medianSeconds(const std::string& name) const {
    return median(seconds(name));
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

Tracer gTracer;

// Wall and process-CPU seconds of one or more calls.
struct Cost {
  double wall = 0.0;
  double cpu = 0.0;
  Cost& operator+=(const Cost& o) {
    wall += o.wall;
    cpu += o.cpu;
    return *this;
  }
};

// Times one call and records a span when tracing is on.
template <typename Fn>
Cost timed(const char* name, Fn&& fn) {
  const std::int64_t cpu0 = cpuNs();
  const std::int64_t start = wallNs();
  const int idx = gTracer.open(name, start);
  fn();
  const std::int64_t end = wallNs();
  gTracer.close(idx, end);
  return Cost{1e-9 * static_cast<double>(end - start),
              1e-9 * static_cast<double>(cpuNs() - cpu0)};
}

// ---------------------------------------------------------------- output

struct Metric {
  double value;
  std::string unit;
};

class Report {
 public:
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void metric(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void count(const std::string& name, double value) { counts[name] = value; }
  // One output check: counts as an attempted operation, and as a failed
  // one when `ok` is false.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
};

// Per-layer metrics of a layer a workload does not run read an explicit
// 0, so a metric missing from the output is always an error.
struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kSimLayerMetrics[] = {
    {"sim.run_s", "s"},          {"sim.pkts", "count"},
    {"sim.pkts_per_s", "1/s"},   {"sim.fair_epochs", "count"},
    {"sim.drop_rate", "fraction"}, {"sim.spec_epochs", "count"},
    {"sim.spec_rollbacks", "count"}, {"sim.spec_commit_ratio", "fraction"},
    {"sim.components", "count"}, {"sim.parallelism", "ratio"},
    {"sim.thread_speedup", "ratio"}, {"sim.dense_mb", "MB"},
    {"sim.report_ms", "ms"},     {"fairness.solve_ms", "ms"},
    {"fairness.rounds", "count"}, {"fairness.epoch_solve_s", "s"},
};

// The mesh pipeline's reference solve and report, absent on sharded-lanes.
constexpr LayerMetric kMeshLayerMetrics[] = {
    {"sim.report_ms", "ms"},
    {"fairness.solve_ms", "ms"},
    {"fairness.rounds", "count"},
    {"fairness.epoch_solve_s", "s"},
};

constexpr LayerMetric kServiceLayerMetrics[] = {
    {"serve.construct_ms", "ms"},      {"serve.first_query_ms", "ms"},
    {"serve.delta_us", "us"},          {"query_p50_ms", "ms"},
    {"query_p99_ms", "ms"},            {"query.samples", "count"},
    {"degraded_p50_ms", "ms"},         {"degraded.samples", "count"},
    {"whatif_p50_ms", "ms"},           {"whatif.samples", "count"},
    {"churn_p50_ms", "ms"},            {"churn.samples", "count"},
    {"serve.query_exact_ms", "ms"},    {"serve.query_exact_p99_ms", "ms"},
    {"serve.query_exact.samples", "count"}, {"serve.join_ms", "ms"},
    {"serve.join.samples", "count"},   {"serve.leave_ms", "ms"},
    {"serve.leave.samples", "count"},  {"serve.exact_answers", "count"},
    {"serve.degraded_answers", "count"}, {"serve.demotions", "count"},
    {"serve.promotions", "count"},     {"serve.rejected", "count"},
    {"serve.busy", "count"},           {"fairness.sampled_share", "fraction"},
    {"net.snapshot_ms", "ms"},         {"net.snapshot_bytes", "bytes"},
    {"serve.journal_bytes", "bytes"},  {"serve.recover_ms", "ms"},
};

template <std::size_t N>
void notApplicable(Report& rep, const LayerMetric (&metrics)[N]) {
  for (const LayerMetric& m : metrics) rep.metric(m.name, 0.0, m.unit);
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 9e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// ---------------------------------------------------------------- digest

// Order-sensitive 64-bit mix over raw IEEE-754 bits: any bit flip in any
// result array changes it.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void word(std::uint64_t w) {
    h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0x100000001b3ULL;
  }
  void value(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    word(bits);
  }
  void values(const std::vector<double>& v) {
    word(v.size());
    for (const double x : v) value(x);
  }
  void nested(const std::vector<std::vector<double>>& v) {
    word(v.size());
    for (const auto& row : v) values(row);
  }
};

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------- workloads

enum class Kind { kMeshChurn, kShardedLanes, kService };

struct Workload {
  const char* name;
  Kind kind;
  int threads;  // engine threads; every solver runs serial
  // Nominal seconds of one measured repetition on a 4-vCPU host. The
  // repetition count is round(seconds / this): fixed work per --seconds,
  // whatever the clock says during the run.
  double nominalRepSeconds;
  std::size_t setupReps;
};

// sharded-lanes runs the lanes engine (runClosedLoopSimulationParallel)
// at one executor; its traced run adds the 4-executor pass. At 4
// executors its per-repetition time moved by 20 % between runs of the
// same seed, with cross-core traffic on lane-interleaved arrays, and was
// slower than at one executor, so only the steady one-executor time is
// bounded.
const Workload kWorkloads[] = {
    {"mesh-churn", Kind::kMeshChurn, 0, 1.25, 5},
    {"mesh-churn-4t", Kind::kMeshChurn, 4, 6.00, 5},
    {"sharded-lanes", Kind::kShardedLanes, 1, 0.60, 41},
    {"service-mix", Kind::kService, 0, 0.066, 5},
};

constexpr int kThreadedExecutors = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::string workDir = ".";
  std::string traceOut;
};

// The mesh population of mesh-churn, mesh-churn-4t and service-mix:
// meshed-backbone scaled to 1,024 sessions x 2 receivers on a 2,048-node
// BA m=2 mesh with private tails, staggered arrivals and exponential
// lifetimes, fair epochs on. Every thread, validation and sample field is
// set here, so no MCFAIR_* environment variable is ever consulted.
sim::ScenarioSpec meshSpec(std::uint64_t seed, bool small, int threads) {
  sim::ScenarioSpec s = *sim::findScenario("meshed-backbone");
  s.sessions = small ? 300 : 1024;
  s.receiversPerSession = 2;
  s.backboneNodes = small ? 512 : 2048;
  s.meshEdgesPerNode = 2;
  s.tailCapacityMin = 1.0;
  s.tailCapacityMax = 16.0;
  s.duration = small ? 12.0 : 120.0;
  s.warmup = 0.1 * s.duration;
  s.arrivalWindow = 0.75 * s.duration;
  s.meanLifetime = 0.25 * s.duration;
  s.minLifetime = 0.02 * s.duration;
  s.computeFairEpochs = true;
  s.solverThreads = 0;
  s.engineThreads = threads;
  s.speculationThreads = threads;
  s.speculativeEpochs = 0;
  s.seed = seed;
  return s;
}

// sharded-bottlenecks at 4,096 sessions with private tails: 64 disjoint
// link-set components, the only shape that reaches the lanes engine.
sim::ScenarioSpec shardedSpec(std::uint64_t seed, bool small, int threads) {
  sim::ScenarioSpec s = *sim::findScenario("sharded-bottlenecks");
  s.sessions = small ? 512 : 4096;
  s.bottleneckGroups = small ? 16 : 64;
  s.tailCapacityMin = 1.0;
  s.tailCapacityMax = 16.0;
  s.duration = small ? 10.0 : 400.0;
  s.warmup = 0.1 * s.duration;
  s.solverThreads = 0;
  s.engineThreads = threads;
  s.speculationThreads = threads;
  s.speculativeEpochs = 0;
  s.seed = seed;
  return s;
}

sim::Scenario buildPinned(const sim::ScenarioSpec& spec) {
  sim::Scenario sc = sim::buildScenario(spec);
  sc.config.validate.enabled = 0;
  return sc;
}

fairness::MaxMinOptions serialSolverOptions() {
  fairness::MaxMinOptions o;
  o.threads = 0;
  o.validate.enabled = 0;
  return o;
}

void scenarioCounts(const net::Network& net, Report& rep) {
  double pathLinks = 0.0;
  double linkUnion = 0.0;
  for (std::size_t i = 0; i < net.sessionCount(); ++i) {
    std::set<std::uint32_t> links;
    for (const net::Receiver& r : net.session(i).receivers) {
      pathLinks += static_cast<double>(r.dataPath.size());
      for (const graph::LinkId l : r.dataPath) links.insert(l.value);
    }
    linkUnion += static_cast<double>(links.size());
  }
  rep.metric("scenario.links", static_cast<double>(net.linkCount()), "count");
  rep.metric("scenario.receivers", static_cast<double>(net.receiverCount()),
             "count");
  rep.metric("scenario.path_links", pathLinks, "count");
  rep.metric("scenario.link_union", linkUnion, "count");
  rep.count("scenario.links", static_cast<double>(net.linkCount()));
  rep.count("scenario.link_union", linkUnion);
}

// ---------------------------------------------------------------- sim

struct SimOutcome {
  std::uint64_t trajectory = 0;  // digest without the fair epochs
  std::uint64_t full = 0;        // trajectory + fair epochs
  double pkts = 0.0;             // forwarded packet-link traversals
  double dropRate = 0.0;         // dropped / offered, all links
  std::size_t fairEpochs = 0;
  std::uint64_t specEpochs = 0;
  std::uint64_t specRollbacks = 0;
  std::size_t components = 0;
};

bool allFiniteNonNegative(const std::vector<double>& v) {
  for (const double x : v) {
    if (!std::isfinite(x) || x < 0.0) return false;
  }
  return true;
}

// Output checks of one simulation, outside any timed call: every rate is
// finite and non-negative, drop rates are fractions, and each link's
// forwarded rate stays within capacity plus bucket depth over the window.
SimOutcome checkSimulation(const sim::Scenario& sc,
                           const sim::ClosedLoopResult& r, Report& rep) {
  const net::Network& net = sc.network;
  const double window = sc.config.duration - sc.config.warmup;
  bool finite = allFiniteNonNegative(r.linkThroughput) &&
                allFiniteNonNegative(r.linkDropRate);
  for (const auto& row : r.measuredRate) finite = finite && allFiniteNonNegative(row);
  for (const auto& row : r.meanLevel) finite = finite && allFiniteNonNegative(row);
  for (const auto& row : r.sessionLinkRate) finite = finite && allFiniteNonNegative(row);
  for (const auto& e : r.fairEpochs) {
    for (const auto& row : e.fairRate) finite = finite && allFiniteNonNegative(row);
  }
  rep.check(finite, "sim: a rate is negative or not finite");

  bool shaped = r.measuredRate.size() == net.sessionCount() &&
                r.linkThroughput.size() == net.linkCount() &&
                r.linkDropRate.size() == net.linkCount();
  bool withinCapacity = shaped;
  SimOutcome out;
  double offered = 0.0;
  double dropped = 0.0;
  for (std::size_t j = 0; shaped && j < net.linkCount(); ++j) {
    const double cap = net.capacity(graph::LinkId{static_cast<std::uint32_t>(j)});
    const double depth = cap * sc.config.tokenBurst;
    const double forwarded = r.linkThroughput[j] * window;
    if (forwarded > cap * window + depth + 1e-6 * (1.0 + forwarded)) {
      withinCapacity = false;
    }
    if (r.linkDropRate[j] > 1.0) withinCapacity = false;
    out.pkts += forwarded;
    if (r.linkDropRate[j] < 1.0) {
      const double off = forwarded / (1.0 - r.linkDropRate[j]);
      offered += off;
      dropped += off * r.linkDropRate[j];
    }
  }
  rep.check(withinCapacity, "sim: a link forwarded more than capacity + depth");

  Digest d;
  d.nested(r.measuredRate);
  d.values(r.linkThroughput);
  d.values(r.linkDropRate);
  d.nested(r.sessionLinkRate);
  d.nested(r.meanLevel);
  out.trajectory = d.h;
  for (const auto& e : r.fairEpochs) {
    d.value(e.begin);
    d.value(e.end);
    d.word(e.sessions.size());
    for (const std::size_t s : e.sessions) d.word(s);
    d.nested(e.fairRate);
  }
  out.full = d.h;
  out.pkts = std::round(out.pkts);
  out.dropRate = offered > 0.0 ? dropped / offered : 0.0;
  out.fairEpochs = r.fairEpochs.size();
  out.specEpochs = r.speculationEpochs;
  out.specRollbacks = r.speculationRollbacks;
  out.components = r.engineComponents;
  return out;
}

struct SimTiming {
  Cost total;  // the whole pipeline
  Cost sim;    // the simulation call alone
};

// One measured repetition: (mesh) reference solve -> simulate -> (mesh)
// fairness-gap report. Only the three library calls are timed. `lanes`
// forces the lanes engine; otherwise runClosedLoopSimulation dispatches.
SimTiming simulateOnce(const sim::Scenario& sc, const sim::ClosedLoopConfig& config,
                       bool lanes, bool withReference, Report& rep,
                       SimOutcome& outcome) {
  SimTiming t;
  const int pipeline = gTracer.open("pipeline", wallNs());
  std::optional<fairness::MaxMinResult> reference;
  if (withReference) {
    t.total += timed("fairness.solve", [&] {
      fairness::MaxMinSolver solver(serialSolverOptions());
      solver.solveAllocation(sc.network);
      reference = solver.takeResult();
    });
  }
  std::optional<sim::ClosedLoopResult> result;
  t.sim = timed("sim.run", [&] {
    result = lanes ? sim::runClosedLoopSimulationParallel(sc.network, config)
                   : sim::runClosedLoopSimulation(sc.network, config);
  });
  t.total += t.sim;
  double gap = 0.0;
  if (withReference) {
    t.total += timed("sim.report", [&] {
      gap = sim::fairnessGap(sc.network, *result, reference->allocation);
    });
  }
  gTracer.close(pipeline, wallNs());

  ++rep.attempted;  // the pipeline itself
  outcome = checkSimulation(sc, *result, rep);
  if (withReference) {
    rep.check(std::isfinite(gap) && gap >= 0.0, "report: fairness gap not finite");
    rep.count("fairness.rounds", static_cast<double>(reference->rounds));
  }
  return t;
}

std::size_t repetitions(const Workload& w, const Args& a) {
  if (a.small) return 2;
  return std::max<std::size_t>(
      3, static_cast<std::size_t>(std::lround(a.seconds / w.nominalRepSeconds)));
}

void runSimWorkload(const Workload& w, const Args& a, Report& rep) {
  const bool mesh = w.kind == Kind::kMeshChurn;
  const sim::ScenarioSpec spec = mesh ? meshSpec(a.seed, a.small, w.threads)
                                      : shardedSpec(a.seed, a.small, w.threads);

  // Set-up: scenario expansion (generation, routing, provisioning).
  std::vector<double> setup;
  std::optional<sim::Scenario> sc;
  for (std::size_t k = 0; k < w.setupReps; ++k) {
    gTracer.recording = a.trace;
    gTracer.run = -1 - static_cast<int>(k);
    sc.reset();
    setup.push_back(timed("scenario.build", [&] { sc = buildPinned(spec); }).wall);
  }
  rep.metric("setup_s", median(setup), "s");
  scenarioCounts(sc->network, rep);

  // Measured phase.
  const bool lanes = w.kind == Kind::kShardedLanes;
  const std::size_t reps = repetitions(w, a);
  std::vector<double> wall, cpu, tracedWall, untracedWall, simCpu, simWall;
  SimOutcome first;
  for (std::size_t k = 0; k < reps; ++k) {
    gTracer.recording = a.trace && k % 2 == 0;
    gTracer.run = static_cast<int>(k);
    SimOutcome o;
    SimTiming t;
    try {
      t = simulateOnce(*sc, sc->config, lanes, mesh, rep, o);
    } catch (const std::exception& e) {
      rep.fail(std::string("sim: ") + e.what());
      continue;
    }
    wall.push_back(t.total.wall);
    cpu.push_back(t.total.cpu);
    (gTracer.recording ? tracedWall : untracedWall).push_back(t.total.wall);
    if (gTracer.recording) {
      simCpu.push_back(t.sim.cpu);
      simWall.push_back(t.sim.wall);
    }
    if (wall.size() == 1) {
      first = o;
    } else {
      rep.check(o.full == first.full, "sim: repetitions disagree (digest)");
    }
  }
  gTracer.recording = false;
  rep.metric("run_s", median(wall), "s");
  rep.metric("cpu_s", median(cpu), "s");
  rep.metric("peak_rss_mb", peakRssMb(), "MB");

  rep.count("sim.pkts", first.pkts);
  rep.count("sim.fair_epochs", static_cast<double>(first.fairEpochs));
  rep.count("sim.spec_epochs", static_cast<double>(first.specEpochs));
  rep.count("sim.spec_rollbacks", static_cast<double>(first.specRollbacks));
  rep.count("sim.components", static_cast<double>(first.components));
  rep.count("sim.reps", static_cast<double>(reps));
  rep.counts["digest_low32"] = static_cast<double>(first.full & 0xffffffffULL);
  std::printf("digest %s\n", hex(first.full).c_str());

  if (!a.trace) return;

  // Traced-only passes on the same scenario, outside the measured reps.
  // Every engine configuration must return the identical result.
  const auto pass = [&](const char* what, const sim::ClosedLoopConfig& config,
                        bool forceLanes, int run, bool wholeDigest) {
    SimOutcome o;
    gTracer.recording = true;
    gTracer.run = run;
    Cost c;
    try {
      c = simulateOnce(*sc, config, forceLanes, false, rep, o).sim;
      rep.check(wholeDigest ? o.full == first.full : o.trajectory == first.trajectory,
                std::string("sim: result differs in the ") + what + " pass");
    } catch (const std::exception& e) {
      rep.fail(std::string(what) + " pass: " + e.what());
    }
    gTracer.recording = false;
    return c;
  };
  const double simRun = median(simWall);
  double threadSpeedup = 0.0;
  double parallelism = 0.0;
  if (w.threads > 1 || lanes) {
    sim::ClosedLoopConfig serial = sc->config;
    serial.engineThreads = 0;
    serial.speculationThreads = 0;
    const Cost c = pass("serial-engine", serial, false, 1000, true);
    if (w.threads > 1 && c.wall > 0.0) {
      threadSpeedup = c.wall / simRun;
      parallelism = median(simCpu) / simRun;
    }
  }
  if (lanes) {
    sim::ClosedLoopConfig threaded = sc->config;
    threaded.engineThreads = kThreadedExecutors;
    threaded.speculationThreads = kThreadedExecutors;
    const Cost c = pass("4-executor lanes", threaded, true, 1001, true);
    if (c.wall > 0.0) {
      threadSpeedup = simRun / c.wall;
      parallelism = c.cpu / c.wall;
    }
  }
  double epochsOffSim = 0.0;
  if (mesh) {
    sim::ClosedLoopConfig off = sc->config;
    off.computeFairEpochs = false;
    epochsOffSim = pass("fair-epochs-off", off, false, 1002, false).wall;
  }

  rep.metric("scenario.build_s", gTracer.medianSeconds("scenario.build"), "s");
  rep.metric("sim.run_s", simRun, "s");
  rep.metric("sim.pkts", first.pkts, "count");
  rep.metric("sim.pkts_per_s", simRun > 0.0 ? first.pkts / simRun : 0.0, "1/s");
  rep.metric("sim.fair_epochs", static_cast<double>(first.fairEpochs), "count");
  rep.metric("sim.drop_rate", first.dropRate, "fraction");
  rep.metric("sim.spec_epochs", static_cast<double>(first.specEpochs), "count");
  rep.metric("sim.spec_rollbacks", static_cast<double>(first.specRollbacks),
             "count");
  rep.metric("sim.spec_commit_ratio",
             first.specEpochs > 0
                 ? 1.0 - static_cast<double>(first.specRollbacks) /
                             static_cast<double>(first.specEpochs)
                 : 0.0,
             "fraction");
  rep.metric("sim.components", static_cast<double>(first.components), "count");
  rep.metric("sim.parallelism", parallelism, "ratio");
  rep.metric("sim.thread_speedup", threadSpeedup, "ratio");
  rep.metric("sim.dense_mb",
             static_cast<double>(sc->network.sessionCount()) *
                 static_cast<double>(sc->network.linkCount()) * 16.0 / 1e6,
             "MB");
  if (mesh) {
    rep.metric("fairness.solve_ms", 1e3 * gTracer.medianSeconds("fairness.solve"),
               "ms");
    rep.metric("fairness.rounds", rep.counts["fairness.rounds"], "count");
    rep.metric("fairness.epoch_solve_s", simRun - epochsOffSim, "s");
    rep.metric("sim.report_ms", 1e3 * gTracer.medianSeconds("sim.report"), "ms");
  } else {
    notApplicable(rep, kMeshLayerMetrics);
  }
  rep.metric("trace.overhead_s", median(tracedWall) - median(untracedWall), "s");
  notApplicable(rep, kServiceLayerMetrics);
}

// ---------------------------------------------------------------- service

// Operation kinds of the service-mix closed loop.
enum class Op { kCapacity, kFault, kBudgeted, kWhatIf, kChurn };

// Operations of each kind in one round. Every kind has the same weight
// (README.md gives the basis of the mix), so when one kind gets faster at
// another's cost, run_s moves by the net change.
constexpr std::size_t kPerKind = 12;
// Rounds between service snapshots. The first round is followed by one
// and the last is not, so the journal always holds deltas for recovery
// to replay.
constexpr std::size_t kSnapshotEvery = 8;
// The question of examples/whatif_analysis.cpp: what if this link's
// capacity doubled. Capacity deltas apply that upgrade and then undo it.
constexpr double kUpgradeFactor = 2.0;
// Fault deltas follow the library's `flap` preset on one link at a time:
// down, then degraded to half capacity, then repaired.
constexpr double kDegradeFactor = 0.5;
// The service serves one fixed deployment, the mesh-churn network of this
// scenario seed; --seed draws the operation sequence. Exact-solve cost
// depends on the graph, and a per-seed network made it the largest source
// of run-to-run spread.
constexpr std::uint64_t kServiceNetworkSeed = 1;

// One round: fixed composition, seeded order.
std::vector<Op> roundOps(util::Rng& rng) {
  std::vector<Op> ops;
  for (const Op op : {Op::kCapacity, Op::kFault, Op::kBudgeted, Op::kWhatIf, Op::kChurn}) {
    ops.insert(ops.end(), kPerKind, op);
  }
  for (std::size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[rng.below(i)]);
  }
  return ops;
}

serve::ServiceOptions serviceOptions(const std::string& journal) {
  serve::ServiceOptions o;
  o.degradeAfter = 2;
  o.promoteAfter = 3;
  // Pinned: the seed alone decides which queries degrade.
  o.exactCostOverride = 1e-3;
  o.costEwmaAlpha = 0.2;
  o.deltaRetries = 3;
  o.retryBackoffSeconds = 1e-4;
  o.quarantineCapacity = 64;
  o.journalPath = journal;
  o.solver = serialSolverOptions();
  o.sampled.sampleFraction = 0.25;
  o.sampled.seed = 1;
  o.sampled.minPerLink = 1;
  o.sampled.solver = serialSolverOptions();
  o.validate.enabled = 0;
  return o;
}

constexpr double kDegradeBudget = 1e-4;  // below the pinned exact cost

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool sameAllocation(const net::Network& net, const fairness::Allocation& a,
                    const fairness::Allocation& b) {
  for (const net::ReceiverRef ref : net.receiverRefs()) {
    if (!sameBits(a.rate(ref), b.rate(ref))) return false;
  }
  return true;
}

// Nearest-rank percentile in milliseconds, reported only when at least
// ten samples lie beyond it (a p99 needs 1,000); otherwise 0.
double percentileMs(const std::vector<double>& v, double q) {
  if ((1.0 - q) * static_cast<double>(v.size()) < 10.0) return 0.0;
  return 1e3 * percentile(v, q);
}

// Every 40th exact and every 20th degraded answer is checked: about one
// check in every 36 operations.
constexpr std::size_t kCheckExactEvery = 40;
constexpr std::size_t kCheckDegradedEvery = 20;

std::uint64_t answerDigest(const net::Network& net, const fairness::Allocation& a) {
  Digest d;
  for (const net::ReceiverRef ref : net.receiverRefs()) d.value(a.rate(ref));
  return d.h;
}

struct ServiceRun {
  std::vector<double> queryExact;     // query after capacity/fault delta
  std::vector<double> degraded;       // every sampled-estimate answer
  std::vector<double> whatIf;
  std::vector<double> churn;          // join/leave delta + query
  std::vector<double> allExact;       // every exact query() answer
  std::vector<double> joins, leaves;
  std::map<std::string, double> ops;  // per-kind operation counts
  std::vector<std::uint64_t> checked;  // digests of the checked answers
};

// One closed-loop client of the service, its operation stream drawn from
// the seed. A measuring client times every call and keeps only a digest
// of each checked answer. A verifying client replays the same stream on a
// fresh service, untimed and after the measured rounds, so the check
// solvers neither hold memory nor evict caches while the service is
// measured. Each checked answer must then equal the measured digest and a
// fresh solve of a copy of the network, bit for bit. What-ifs change no
// state, so the replay skips them.
class MixClient {
 public:
  MixClient(serve::FairshareService& svc, const serve::ServiceOptions& options,
            std::uint64_t seed, Report& rep,
            const std::vector<std::uint64_t>* measured = nullptr)
      : svc_(svc),
        options_(options),
        rng_(seed * 0x9e3779b97f4a7c15ULL + 0x5eed),
        rep_(rep),
        measured_(measured),
        links_(static_cast<std::uint32_t>(svc.network().linkCount())),
        nextId_(svc.network().sessionCount()) {
    for (std::uint32_t j = 0; j < links_; ++j) {
      base_.push_back(svc.network().capacity(graph::LinkId{j}));
    }
  }

  // One round; returns the summed cost of its calls.
  Cost round() {
    Cost busy;
    for (const Op op : roundOps(rng_)) {
      try {
        busy += step(op);
      } catch (const std::exception& e) {
        rep_.fail(std::string("service op: ") + e.what());
      }
    }
    return busy;
  }

  ServiceRun run;

 private:
  Cost step(Op op) {
    Cost c;
    switch (op) {
      case Op::kCapacity:
        c += delta(capacityDelta());
        c += query(kInf, &run.queryExact);
        run.ops["ops.capacity"] += 1;
        break;
      case Op::kFault:
        c += delta(faultDelta());
        c += query(kInf, &run.queryExact);
        run.ops["ops.fault"] += 1;
        break;
      case Op::kBudgeted:
        c += delta(capacityDelta());
        c += query(kDegradeBudget, nullptr);
        run.ops["ops.budgeted"] += 1;
        break;
      case Op::kWhatIf: {
        const graph::LinkId l = randomLink();
        run.ops["ops.whatif"] += 1;
        if (measured_ != nullptr) break;
        serve::QueryResult q;
        c = timed("serve.whatif", [&] {
          q = svc_.whatIfCapacity(l, base_[l.value] * kUpgradeFactor, kInf);
        });
        status(q.status, "whatIfCapacity");
        run.whatIf.push_back(c.wall);
        break;
      }
      case Op::kChurn: {
        if (churnCount_++ % 2 == 0 || departed_.empty()) {
          const std::vector<std::uint64_t> ids = svc_.sessionIds();
          const std::size_t idx = rng_.below(ids.size());
          departed_.push_back(svc_.network().session(idx));
          c = delta(serve::leaveDelta(ids[idx]));
          run.leaves.push_back(c.wall);
          run.ops["ops.leave"] += 1;
        } else {
          c = delta(serve::joinDelta(nextId_++, std::move(departed_.front())));
          departed_.pop_front();
          run.joins.push_back(c.wall);
          run.ops["ops.join"] += 1;
        }
        c += query(kInf, nullptr);
        run.churn.push_back(c.wall);
        break;
      }
    }
    return c;
  }

  graph::LinkId randomLink() {
    return graph::LinkId{static_cast<std::uint32_t>(rng_.below(links_))};
  }

  // Upgrades a random link, or restores the one upgraded last.
  serve::Delta capacityDelta() {
    upgradeApplied_ = !upgradeApplied_;
    if (!upgradeApplied_) return serve::setCapacityDelta(upgraded_, base_[upgraded_.value]);
    upgraded_ = randomLink();
    return serve::setCapacityDelta(upgraded_, base_[upgraded_.value] * kUpgradeFactor);
  }

  serve::Delta faultDelta() {
    net::FaultEvent ev;
    switch (faultStep_++ % 3) {
      case 0:
        faultLink_ = randomLink();
        ev.kind = net::FaultKind::kLinkDown;
        break;
      case 1:
        ev.kind = net::FaultKind::kDegrade;
        ev.factor = kDegradeFactor;
        break;
      default:
        ev.kind = net::FaultKind::kLinkUp;
        break;
    }
    ev.link = faultLink_;
    return serve::faultDelta(ev);
  }

  void status(serve::ServiceStatus s, const char* what) {
    ++rep_.attempted;
    if (s != serve::ServiceStatus::kOk) {
      rep_.fail(std::string(what) + ": " + serve::serviceStatusName(s));
    }
  }

  Cost delta(const serve::Delta& d) {
    serve::ServiceStatus s{};
    const Cost c = timed("serve.delta", [&] { s = svc_.applyDelta(d); });
    status(s, "applyDelta");
    return c;
  }

  // Answers are grouped by their degraded flag: hysteresis can degrade an
  // unbudgeted query.
  Cost query(double budget, std::vector<double>* exactAfterDelta) {
    serve::QueryResult q;
    const Cost c = timed("serve.query", [&] { q = svc_.query(budget); });
    status(q.status, "query");
    if (q.degraded) {
      run.degraded.push_back(c.wall);
    } else {
      run.allExact.push_back(c.wall);
      if (exactAfterDelta != nullptr) exactAfterDelta->push_back(c.wall);
    }
    run.ops[q.degraded ? "ops.query_degraded" : "ops.query_exact"] += 1;
    if (q.status == serve::ServiceStatus::kOk && q.rates != nullptr &&
        (q.degraded ? degradedSeen_++ % kCheckDegradedEvery
                    : exactSeen_++ % kCheckExactEvery) == 0) {
      check(q);
    }
    return c;
  }

  void check(const serve::QueryResult& q) {
    const net::Network& net = svc_.network();
    const std::size_t k = run.checked.size();
    run.checked.push_back(answerDigest(net, *q.rates));
    if (measured_ == nullptr) return;
    rep_.check(k < measured_->size() && (*measured_)[k] == run.checked[k],
               "service: replayed answer differs from the measured one");
    const net::Network copy = net;
    if (q.degraded) {
      fairness::SampledSolver direct(options_.sampled);
      direct.solve(copy);
      rep_.check(sameAllocation(copy, *q.rates, direct.estimateAllocation()),
                 "service: degraded answer differs from a direct sampled solve");
    } else {
      fairness::MaxMinSolver direct(serialSolverOptions());
      rep_.check(sameAllocation(copy, *q.rates, direct.solveAllocation(copy)),
                 "service: exact answer differs from a fresh solve");
    }
  }

  serve::FairshareService& svc_;
  const serve::ServiceOptions& options_;
  util::Rng rng_;
  Report& rep_;
  const std::vector<std::uint64_t>* measured_;
  const std::uint32_t links_;
  std::vector<double> base_;
  bool upgradeApplied_ = false;
  graph::LinkId upgraded_{0};
  std::size_t faultStep_ = 0;
  graph::LinkId faultLink_{0};
  std::deque<net::Session> departed_;  // left sessions, re-joined in order
  std::uint64_t nextId_;
  std::uint64_t churnCount_ = 0;
  std::size_t exactSeen_ = 0;
  std::size_t degradedSeen_ = 0;
};

// Scenario expansion, service construction and the first cold query;
// returns their wall times.
struct ServiceSetup {
  double build = 0.0;
  double construct = 0.0;
  double firstQuery = 0.0;
};

ServiceSetup startService(const Args& a, const serve::ServiceOptions& options,
                          std::unique_ptr<serve::FairshareService>& svc,
                          Report& rep) {
  ServiceSetup t;
  std::optional<sim::Scenario> sc;
  t.build = timed("scenario.build", [&] {
              sc = buildPinned(meshSpec(kServiceNetworkSeed, a.small, 0));
            }).wall;
  t.construct = timed("serve.construct", [&] {
                  svc = std::make_unique<serve::FairshareService>(
                      std::move(sc->network), options);
                }).wall;
  serve::QueryResult q;
  t.firstQuery = timed("serve.first_query", [&] { q = svc->query(kInf); }).wall;
  rep.check(q.status == serve::ServiceStatus::kOk && !q.degraded,
            "service: first query not exact");
  return t;
}

void runServiceWorkload(const Workload& w, const Args& a, Report& rep) {
  const std::filesystem::path dir(a.workDir);
  const std::string journal = (dir / "journal.bin").string();
  // Each snapshot goes to a fresh file: rewriting one in place makes
  // ext4 flush it to the device on close (auto_da_alloc).
  std::string snapshot;
  std::size_t snapshotsTaken = 0;
  const serve::ServiceOptions options = serviceOptions(journal);

  std::vector<double> setup, construct, firstQuery;
  std::unique_ptr<serve::FairshareService> svc;
  for (std::size_t k = 0; k < w.setupReps; ++k) {
    gTracer.recording = a.trace;
    gTracer.run = -1 - static_cast<int>(k);
    svc.reset();
    const ServiceSetup t = startService(a, options, svc, rep);
    setup.push_back(t.build + t.construct + t.firstQuery);
    construct.push_back(t.construct);
    firstQuery.push_back(t.firstQuery);
  }
  rep.metric("setup_s", median(setup), "s");
  scenarioCounts(svc->network(), rep);

  const std::size_t rounds = repetitions(w, a);
  std::vector<double> roundTime, roundCpu, tracedRound, untracedRound;
  ServiceRun run;
  {
    MixClient client(*svc, options, a.seed, rep);
    for (std::size_t r = 0; r < rounds; ++r) {
      gTracer.recording = a.trace && r % 2 == 0;
      gTracer.run = static_cast<int>(r);
      const int span = gTracer.open("round", wallNs());
      const Cost busy = client.round();
      gTracer.close(span, wallNs());
      roundTime.push_back(busy.wall);
      roundCpu.push_back(busy.cpu);
      (gTracer.recording ? tracedRound : untracedRound).push_back(busy.wall);
      // Periodic snapshot, timed apart from the rounds: its cost is mostly
      // the device flush ext4 makes when saveSnapshot truncates the journal.
      // The first round is followed by one and the last is not, so the
      // journal always holds deltas for recovery to replay.
      if (r == 0 || ((r + 1) % kSnapshotEvery == 0 && r + 1 < rounds)) {
        const std::string previous = snapshot;
        snapshot = (dir / ("snapshot-" + std::to_string(snapshotsTaken++) + ".bin")).string();
        gTracer.recording = a.trace;  // every snapshot is traced
        try {
          timed("serve.snapshot", [&] { svc->saveSnapshot(snapshot); });
          ++rep.attempted;
          client.run.ops["ops.snapshot"] += 1;
        } catch (const std::exception& e) {
          rep.fail(std::string("saveSnapshot: ") + e.what());
        }
        if (!previous.empty()) std::filesystem::remove(previous);
      }
    }
    run = std::move(client.run);
  }
  gTracer.recording = false;
  rep.metric("run_s", median(roundTime), "s");
  rep.metric("cpu_s", median(roundCpu), "s");
  // The service's own peak: no check solver has run yet.
  rep.metric("peak_rss_mb", peakRssMb(), "MB");

  // Recovery: with the live service gone, the last snapshot plus the
  // journal must reproduce its state and allocation bit for bit.
  const serve::ServiceMetrics m = svc->metrics();
  const net::Network live = svc->network();
  const std::vector<std::uint64_t> liveIds = svc->sessionIds();
  const std::uint64_t liveRevision = svc->revision();
  svc.reset();
  double journalBytes = 0.0, snapshotBytes = 0.0, recoverMs = 0.0;
  try {
    journalBytes = static_cast<double>(std::filesystem::file_size(journal));
    snapshotBytes = static_cast<double>(std::filesystem::file_size(snapshot));
    gTracer.recording = a.trace;
    gTracer.run = 1000;
    std::unique_ptr<serve::FairshareService> recovered;
    recoverMs = 1e3 * timed("serve.recover", [&] {
      recovered = serve::FairshareService::recover(snapshot, options);
    }).wall;
    gTracer.recording = false;
    const net::Network& rn = recovered->network();
    bool same = net::structurallyEqual(rn, live) &&
                rn.linkCount() == live.linkCount() &&
                recovered->sessionIds() == liveIds &&
                recovered->revision() == liveRevision;
    for (std::uint32_t j = 0; same && j < live.linkCount(); ++j) {
      same = sameBits(rn.capacity(graph::LinkId{j}), live.capacity(graph::LinkId{j}));
    }
    rep.check(same, "recover: state differs from the live service");
    const serve::QueryResult q = recovered->query(kInf);
    fairness::MaxMinSolver direct(serialSolverOptions());
    rep.check(q.status == serve::ServiceStatus::kOk && !q.degraded &&
                  sameAllocation(live, *q.rates, direct.solveAllocation(live)),
              "recover: allocation differs from the live service");
  } catch (const std::exception& e) {
    rep.fail(std::string("recover: ") + e.what());
  }

  // Output checks: replay the measured stream on a fresh, unjournaled
  // service.
  try {
    serve::ServiceOptions replayOptions = options;
    replayOptions.journalPath.clear();
    startService(a, replayOptions, svc, rep);
    MixClient replay(*svc, replayOptions, a.seed, rep, &run.checked);
    for (std::size_t r = 0; r < rounds; ++r) replay.round();
    rep.check(replay.run.checked.size() == run.checked.size(),
              "service: replay checked another number of answers");
  } catch (const std::exception& e) {
    rep.fail(std::string("replay: ") + e.what());
  }

  Digest answers;
  for (const std::uint64_t h : run.checked) answers.word(h);
  std::printf("digest %s\n", hex(answers.h).c_str());
  rep.counts["digest_low32"] = static_cast<double>(answers.h & 0xffffffffULL);
  for (const auto& [k, v] : run.ops) rep.count(k, v);
  rep.count("serve.checked_answers", static_cast<double>(run.checked.size()));
  rep.count("serve.exact_answers", static_cast<double>(m.exactAnswers));
  rep.count("serve.degraded_answers", static_cast<double>(m.degradedAnswers));
  rep.count("serve.demotions", static_cast<double>(m.demotions));
  rep.count("serve.promotions", static_cast<double>(m.promotions));
  rep.count("serve.rejected", static_cast<double>(m.rejectedDeltas));
  rep.count("serve.busy", static_cast<double>(m.busyRejections));
  rep.count("serve.revision", static_cast<double>(liveRevision));
  rep.count("serve.rounds", static_cast<double>(rounds));
  if (m.rejectedDeltas + m.busyRejections > 0) {
    rep.fail("service: rejected or busy deltas");
  }

  if (!a.trace) return;
  fairness::SampledSolver share(options.sampled);
  share.bind(live);
  const auto samples = [](const std::vector<double>& v) {
    return static_cast<double>(v.size());
  };
  rep.metric("scenario.build_s", gTracer.medianSeconds("scenario.build"), "s");
  rep.metric("serve.construct_ms", 1e3 * median(construct), "ms");
  rep.metric("serve.first_query_ms", 1e3 * median(firstQuery), "ms");
  rep.metric("serve.delta_us", 1e6 * gTracer.medianSeconds("serve.delta"), "us");
  rep.metric("query_p50_ms", percentileMs(run.queryExact, 0.5), "ms");
  rep.metric("query_p99_ms", percentileMs(run.queryExact, 0.99), "ms");
  rep.metric("query.samples", samples(run.queryExact), "count");
  rep.metric("degraded_p50_ms", percentileMs(run.degraded, 0.5), "ms");
  rep.metric("degraded.samples", samples(run.degraded), "count");
  rep.metric("whatif_p50_ms", percentileMs(run.whatIf, 0.5), "ms");
  rep.metric("whatif.samples", samples(run.whatIf), "count");
  rep.metric("churn_p50_ms", percentileMs(run.churn, 0.5), "ms");
  rep.metric("churn.samples", samples(run.churn), "count");
  rep.metric("serve.query_exact_ms", percentileMs(run.allExact, 0.5), "ms");
  rep.metric("serve.query_exact_p99_ms", percentileMs(run.allExact, 0.99), "ms");
  rep.metric("serve.query_exact.samples", samples(run.allExact), "count");
  rep.metric("serve.join_ms", percentileMs(run.joins, 0.5), "ms");
  rep.metric("serve.join.samples", samples(run.joins), "count");
  rep.metric("serve.leave_ms", percentileMs(run.leaves, 0.5), "ms");
  rep.metric("serve.leave.samples", samples(run.leaves), "count");
  rep.metric("serve.exact_answers", static_cast<double>(m.exactAnswers), "count");
  rep.metric("serve.degraded_answers", static_cast<double>(m.degradedAnswers), "count");
  rep.metric("serve.demotions", static_cast<double>(m.demotions), "count");
  rep.metric("serve.promotions", static_cast<double>(m.promotions), "count");
  rep.metric("serve.rejected", static_cast<double>(m.rejectedDeltas), "count");
  rep.metric("serve.busy", static_cast<double>(m.busyRejections), "count");
  rep.metric("fairness.sampled_share",
             static_cast<double>(share.sampledReceiverCount()) /
                 static_cast<double>(share.totalReceiverCount()),
             "fraction");
  rep.metric("net.snapshot_ms", 1e3 * gTracer.medianSeconds("serve.snapshot"), "ms");
  rep.metric("net.snapshot_bytes", snapshotBytes, "bytes");
  rep.metric("serve.journal_bytes", journalBytes, "bytes");
  rep.metric("serve.recover_ms", recoverMs, "ms");
  rep.metric("trace.overhead_s", median(tracedRound) - median(untracedRound), "s");
  notApplicable(rep, kSimLayerMetrics);
}

// ---------------------------------------------------------------- main

// Busy-waits before any timing. Without it, about one process in six ran
// its sub-millisecond set-up 50 % slower for its whole life: a vCPU
// coming out of idle.
void warmUpCpu() {
  const std::int64_t start = wallNs();
  volatile std::uint64_t spins = 0;
  while (wallNs() - start < 300'000'000) spins = spins + 1;
}

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--size") {
      a.small = val == "small";
    } else if (key == "--work-dir") {
      a.workDir = val;
    } else if (key == "--trace-out") {
      a.traceOut = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

void writeTrace(const Args& a, const Report& rep) {
  std::ofstream out(a.traceOut);
  out << "{\"workload\": " << jsonString(a.workload) << ", \"seed\": " << a.seed
      << ", \"counts\": {";
  bool firstItem = true;
  for (const auto& [k, v] : rep.counts) {
    out << (firstItem ? "" : ", ") << jsonString(k) << ": " << jsonNumber(v);
    firstItem = false;
  }
  out << "}, \"spans\": [";
  firstItem = true;
  for (const Span& s : gTracer.spans()) {
    out << (firstItem ? "\n" : ",\n") << "{\"name\": " << jsonString(s.name)
        << ", \"start_ns\": " << s.startNs << ", \"end_ns\": " << s.endNs
        << ", \"parent\": " << s.parent << ", \"run\": " << s.run << "}";
    firstItem = false;
  }
  out << "\n]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parseArgs(argc, argv, args)) throw std::invalid_argument("bad arguments");
  } catch (const std::exception&) {
    std::fprintf(stderr,
                 "usage: mcfair_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--size full|small] [--work-dir DIR] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "mcfair_e2e: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  Report rep;
  warmUpCpu();
  try {
    if (w->kind == Kind::kService) {
      runServiceWorkload(*w, args, rep);
    } else {
      runSimWorkload(*w, args, rep);
    }
  } catch (const std::exception& e) {
    rep.fail(std::string("workload: ") + e.what());
  }
  if (rep.attempted == 0) rep.attempted = 1;
  rep.metric("error_rate",
             static_cast<double>(rep.failed) / static_cast<double>(rep.attempted),
             "fraction");
  if (args.trace) {
    rep.metric("trace.spans", static_cast<double>(gTracer.spans().size()), "count");
  }
  if (args.trace && !args.traceOut.empty()) writeTrace(args, rep);

  for (const std::string& f : rep.failures) std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  std::string line = "{\"workload\": " + jsonString(w->name) +
                     ", \"correct\": " + (rep.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(rep.attempted) +
                     ", \"failed\": " + std::to_string(rep.failed) +
                     ", \"metrics\": {";
  bool firstItem = true;
  for (const auto& [name, m] : rep.metrics) {
    line += (firstItem ? "" : ", ") + jsonString(name) + ": {\"value\": " +
            jsonNumber(m.value) + ", \"unit\": " + jsonString(m.unit) + "}";
    firstItem = false;
  }
  line += "}, \"counts\": {";
  firstItem = true;
  for (const auto& [name, v] : rep.counts) {
    line += (firstItem ? "" : ", ") + jsonString(name) + ": " + jsonNumber(v);
    firstItem = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
