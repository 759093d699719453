// epoch_bench: the repository's whole-epoch benchmark.
//
//   epoch_bench --workload NAME --seed N --seconds S --trace 0|1
//       Closed loop: one epoch (ApplyPending + Network::RunEpoch) starts
//       when the previous one has returned. Prints a host record, then
//       as its last line one JSON object {correct, attempted, failed,
//       metrics}: the end-to-end metrics with --trace 0, the per-layer
//       metrics with --trace 1.
//   epoch_bench --workload NAME --seed N --selfcheck
//       Differential: the first epochs of the hand-assembled deployment
//       must equal runner::RunEngineExperiment's (and, for UDP, the
//       simulator backend's) query by query.
//   epoch_bench --workload NAME --seed N --determinism
//       Two short runs of different lengths must give identical counts.
//
// Every timed epoch is checked against a plaintext oracle after the
// timed loop ends; a wrong, unverified or errored epoch is a failure.
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/timer.h"
#include "crypto/cpu_features.h"
#include "deployment.h"
#include "predicate/compiler.h"

namespace epochbench {
namespace {

/// A run must end well inside 180 s; loops stop at this process age.
constexpr double kDeadlineSeconds = 150.0;
/// The traced run alternates untraced and traced epochs in blocks of
/// this many, so host drift hits both sides of trace_overhead_share.
constexpr uint32_t kAlternateBlock = 10;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selfcheck = false;
  bool determinism = false;
  uint32_t setups = 7;  ///< set-ups per run; setup_s is their median
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failures, for stderr
  std::vector<Metric> metrics;
  bool correct() const { return failed == 0; }
  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(why);
  }
};

const Stopwatch& ProcessAge() {
  static const Stopwatch age;
  return age;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear-interpolated quantile (numpy's default); 0 for no samples.
template <typename T>
double Quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) +
         static_cast<double>(v[hi]) * frac;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

/// nproc, kernel, CPU model and the crypto dispatch in effect, so runs
/// from different host shapes are never compared silently.
std::string HostRecord() {
  utsname u{};
  uname(&u);
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  const crypto::CpuFeatures& cpu = crypto::Cpu();
  const char* native = std::getenv("SIES_NATIVE");
  return "{\"host\": {\"nproc\": " +
         std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"kernel\": " + JsonString(std::string(u.sysname) + " " + u.release) +
         ", \"cpu_model\": " + JsonString(model) +
         ", \"dispatch\": {\"avx2\": " + (cpu.avx2 ? "true" : "false") +
         ", \"bmi2\": " + (cpu.bmi2 ? "true" : "false") +
         ", \"adx\": " + (cpu.adx ? "true" : "false") +
         ", \"SIES_NATIVE\": " + JsonString(native ? native : "") + "}}}";
}

void PrintResult(const RunResult& r) {
  for (const std::string& e : r.errors) std::fprintf(stderr, "FAILED: %s\n", e.c_str());
  for (const Metric& m : r.metrics) {
    std::printf("# %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) json += ", ";
    json += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// `setups` complete set-ups; every one but the last is torn down. The
/// last one serves the timed epochs.
StatusOr<std::unique_ptr<Deployment>> SetUpMany(const WorkloadSpec& spec,
                                                uint64_t seed, uint32_t setups,
                                                std::vector<SetupTimes>* times) {
  std::unique_ptr<Deployment> last;
  for (uint32_t i = 0; i < setups; ++i) {
    last.reset();  // tear the previous one down before timing the next
    auto d = SetUp(spec, seed, /*traced=*/false);
    if (!d.ok()) return d.status();
    last = std::move(d).value();
    times->push_back(last->setup);
  }
  return last;
}

/// Steps epochs until `seconds` have passed and at least `min_epochs`
/// ran (or the process deadline hits). Returns process CPU seconds.
double TimedLoop(Deployment& d, double seconds, uint32_t min_epochs,
                 std::vector<EpochRecord>* records) {
  const double cpu0 = ProcessCpuSeconds();
  Stopwatch elapsed;
  while ((records->size() < min_epochs || elapsed.ElapsedSeconds() < seconds) &&
         ProcessAge().ElapsedSeconds() < kDeadlineSeconds) {
    records->push_back(d.Step());
  }
  return ProcessCpuSeconds() - cpu0;
}

/// Runs the oracle over every record; returns the ok flag per record
/// (answered, verified, bit-equal for every live query).
std::vector<bool> CheckRecords(const Deployment& d,
                               const std::vector<EpochRecord>& records,
                               RunResult* result) {
  workload::TraceConfig config = d.trace->config();
  workload::TraceGenerator readings(config);  // the oracle's own copy
  std::vector<bool> ok;
  for (const EpochRecord& rec : records) {
    ++result->attempted;
    Status check = CheckAgainstOracle(rec, readings, d.spec.num_sources,
                                      d.spec.loss_rate == 0.0);
    if (!check.ok()) result->Fail(check.ToString());
    ok.push_back(check.ok() && rec.answered);
  }
  return ok;
}

double SecondsMedian(const std::vector<SetupTimes>& t,
                     double SetupTimes::*field) {
  std::vector<double> v;
  for (const SetupTimes& s : t) v.push_back(s.*field);
  return Quantile(v, 0.5);
}

double EpochP50Ms(const std::vector<EpochRecord>& records) {
  std::vector<double> ms;
  for (const EpochRecord& r : records) {
    if (r.status.ok()) ms.push_back(r.wall_s * 1e3);
  }
  return Quantile(ms, 0.5);
}

/// --trace 0: the nine end-to-end metrics.
RunResult EndToEnd(const WorkloadSpec& spec, const Options& opt) {
  RunResult result;
  std::vector<SetupTimes> setups;
  auto d = SetUpMany(spec, opt.seed, opt.setups, &setups);
  if (!d.ok()) {
    result.Fail("set-up: " + d.status().ToString());
    return result;
  }
  Deployment& dep = *d.value();
  std::vector<EpochRecord> records;
  const double cpu_s = TimedLoop(dep, opt.seconds, spec.census_epochs, &records);
  const std::vector<bool> ok = CheckRecords(dep, records, &result);

  std::vector<double> wall_ms;
  double wall_sum = 0;
  for (const EpochRecord& r : records) {
    if (!r.status.ok()) continue;  // an errored epoch is never timed
    wall_ms.push_back(r.wall_s * 1e3);
    wall_sum += r.wall_s;
  }
  // Counts over a fixed window, so they repeat exactly for a seed.
  const size_t census = std::min<size_t>(spec.census_epochs, records.size());
  uint64_t wire = 0, ok_epochs = 0;
  double coverage = 0;
  for (size_t i = 0; i < census; ++i) {
    wire += records[i].wire_bytes;
    ok_epochs += ok[i] ? 1 : 0;
    coverage += records[i].coverage;
  }
  const double n = static_cast<double>(std::max<size_t>(census, 1));
  result.metrics = {
      {"epoch_ms_p50", "ms", Quantile(wall_ms, 0.5)},
      {"epoch_ms_p90", "ms", Quantile(wall_ms, 0.9)},
      {"epochs_per_s", "1/s", wall_sum > 0 ? wall_ms.size() / wall_sum : 0.0},
      {"setup_s", "s", SecondsMedian(setups, &SetupTimes::total)},
      {"cpu_ms_per_epoch", "ms",
       records.empty() ? 0.0 : cpu_s * 1e3 / static_cast<double>(records.size())},
      {"peak_rss_mb", "MiB", PeakRssMib()},
      {"wire_kb_per_epoch", "KiB", static_cast<double>(wire) / 1024.0 / n},
      {"ok_share", "ratio", static_cast<double>(ok_epochs) / n},
      {"coverage_mean", "ratio", coverage / n},
  };
  std::printf("# timed_epochs=%zu census_epochs=%zu p90_tail_samples=%zu\n",
              records.size(), census,
              static_cast<size_t>(std::count_if(
                  wall_ms.begin(), wall_ms.end(),
                  [p90 = Quantile(wall_ms, 0.9)](double v) { return v > p90; })));
  return result;
}

/// Median per-query wall time of predicate::CompileChannelSpecs over the
/// workload's queries, in microseconds.
double CompileMicrosPerQuery(const WorkloadSpec& spec) {
  std::vector<double> per_rep;
  for (int rep = 0; rep < 200; ++rep) {
    Stopwatch w;
    for (const core::Query& q : spec.queries) {
      auto specs = predicate::CompileChannelSpecs(q);
      if (!specs.ok()) return 0.0;
    }
    per_rep.push_back(w.ElapsedMicros() / static_cast<double>(spec.queries.size()));
  }
  return Quantile(per_rep, 0.5);
}

/// --trace 1: the per-layer metrics, from a separately set-up traced
/// deployment, plus the overhead against an untraced baseline.
RunResult Layers(const WorkloadSpec& spec, const Options& opt) {
  RunResult result;
  std::vector<SetupTimes> setups;
  auto base = SetUpMany(spec, opt.seed, opt.setups, &setups);
  if (!base.ok()) {
    result.Fail("set-up: " + base.status().ToString());
    return result;
  }
  auto traced = SetUp(spec, opt.seed, /*traced=*/true);
  if (!traced.ok()) {
    result.Fail("traced set-up: " + traced.status().ToString());
    return result;
  }
  Deployment& b = *base.value();
  Deployment& d = *traced.value();
  const auto src0 = d.engine->SourceCacheStats();
  const auto qry0 = d.engine->QuerierCacheStats();
  const uint64_t prefetched0 = d.scheduler->prefetched_epochs();
  const uint64_t datagrams0 = d.udp ? d.udp->datagrams_sent() : 0;
  // The traced deployment runs a fixed epoch count, so every count
  // below repeats for a seed; the untraced one only times its epochs.
  std::vector<EpochRecord> baseline, records;
  while (records.size() < spec.census_epochs &&
         ProcessAge().ElapsedSeconds() < kDeadlineSeconds) {
    for (uint32_t i = 0; i < kAlternateBlock; ++i) baseline.push_back(b.Step());
    for (uint32_t i = 0; i < kAlternateBlock && records.size() < spec.census_epochs;
         ++i) {
      records.push_back(d.Step());
    }
  }
  CheckRecords(b, baseline, &result);
  CheckRecords(d, records, &result);
  const auto src1 = d.engine->SourceCacheStats();
  const auto qry1 = d.engine->QuerierCacheStats();

  std::vector<float> psr_us, merge_us, deliver_us;
  std::vector<double> wall_ms;
  double source_phase = 0, source_busy = 0, merge_busy = 0, evaluate = 0;
  double deliver_busy = 0, apply = 0, wall = 0, run_epoch = 0;
  uint64_t bytes_in = 0, attempts = 0, deliveries = 0, delivered = 0;
  uint64_t channels = 0, naive = 0, envelope = 0;
  for (const EpochRecord& r : records) {
    if (!r.status.ok()) continue;
    const EpochLayers& l = r.layers;
    psr_us.insert(psr_us.end(), l.psr_us.begin(), l.psr_us.end());
    merge_us.insert(merge_us.end(), l.merge_us.begin(), l.merge_us.end());
    deliver_us.insert(deliver_us.end(), l.deliver_us.begin(), l.deliver_us.end());
    wall_ms.push_back(r.wall_s * 1e3);
    source_phase += l.SourcePhaseSeconds();
    source_busy += l.source_busy_s;
    merge_busy += l.merge_busy_s;
    evaluate += l.evaluate_s;
    deliver_busy += l.deliver_busy_s;
    apply += r.apply_pending_s;
    wall += r.wall_s;
    run_epoch += r.run_epoch_s;
    bytes_in += l.merge_bytes_in;
    attempts += l.attempts;
    deliveries += l.deliveries;
    delivered += l.delivered;
    channels += r.plan_channels;
    naive += r.naive_channels;
    envelope += r.envelope_bytes;
  }
  const double n = static_cast<double>(std::max<size_t>(records.size(), 1));
  const double covered = source_phase + deliver_busy + merge_busy + evaluate;
  const double untraced_p50 = EpochP50Ms(baseline);
  auto misses = [](const core::EpochKeyCache::Stats& a,
                   const core::EpochKeyCache::Stats& b) {
    return static_cast<double>(b.global_misses - a.global_misses +
                               b.source_misses - a.source_misses);
  };
  result.metrics = {
      {"setup.keygen_ms", "ms", 1e3 * SecondsMedian(setups, &SetupTimes::keygen)},
      {"setup.engine_ms", "ms", 1e3 * SecondsMedian(setups, &SetupTimes::engine)},
      {"setup.admit_ms", "ms", 1e3 * SecondsMedian(setups, &SetupTimes::admit)},
      {"setup.transport_start_ms", "ms",
       1e3 * SecondsMedian(setups, &SetupTimes::transport_start)},
      {"setup.warmup_ms", "ms", 1e3 * SecondsMedian(setups, &SetupTimes::warmup)},
      {"predicate.compile_us_per_query", "us", CompileMicrosPerQuery(spec)},
      {"sies.source.psr_us_p50", "us", Quantile(psr_us, 0.5)},
      {"sies.source.busy_ms_per_epoch", "ms", 1e3 * source_busy / n},
      {"sies.source.phase_ms_per_epoch", "ms", 1e3 * source_phase / n},
      {"sies.source.key_cache_misses_per_epoch", "count", misses(src0, src1) / n},
      {"sies.aggregator.merge_us_p50", "us", Quantile(merge_us, 0.5)},
      {"sies.aggregator.busy_ms_per_epoch", "ms", 1e3 * merge_busy / n},
      {"sies.aggregator.bytes_in_per_epoch", "B", static_cast<double>(bytes_in) / n},
      {"sies.querier.evaluate_ms_per_epoch", "ms", 1e3 * evaluate / n},
      {"sies.querier.key_cache_misses_per_epoch", "count", misses(qry0, qry1) / n},
      {"sies.querier.key_cache_evictions", "count", static_cast<double>(qry1.evictions)},
      {"engine.prefetched_epochs", "count",
       static_cast<double>(d.scheduler->prefetched_epochs() - prefetched0)},
      {"net.deliver_us_p50", "us", Quantile(deliver_us, 0.5)},
      {"net.deliver_us_p90", "us", Quantile(deliver_us, 0.9)},
      {"net.busy_ms_per_epoch", "ms", 1e3 * deliver_busy / n},
      {"net.attempts_per_epoch", "count", static_cast<double>(attempts) / n},
      {"net.delivered_share", "ratio",
       deliveries ? static_cast<double>(delivered) / static_cast<double>(deliveries) : 0.0},
      {"net.udp_datagrams_per_epoch", "count",
       d.udp ? static_cast<double>(d.udp->datagrams_sent() - datagrams0) / n : 0.0},
      {"net.udp_malformed", "count",
       d.udp ? static_cast<double>(d.udp->malformed_datagrams()) : 0.0},
      {"net.other_ms_per_epoch", "ms", 1e3 * (run_epoch - covered) / n},
      {"engine.plan_channels", "count", static_cast<double>(channels) / n},
      {"engine.envelope_bytes", "B", static_cast<double>(envelope) / n},
      {"engine.dedup_ratio", "ratio",
       naive ? static_cast<double>(channels) / static_cast<double>(naive) : 0.0},
      {"engine.apply_pending_ms_per_epoch", "ms", 1e3 * apply / n},
      {"common.pool.nested_inline_jobs", "count",
       static_cast<double>(d.pool->nested_inline_jobs())},
      {"common.pool.max_job_size", "count", static_cast<double>(d.pool->max_job_size())},
      {"attribution_share", "ratio", wall > 0 ? (covered + apply) / wall : 0.0},
      {"trace_overhead_share", "ratio",
       untraced_p50 > 0 ? Quantile(wall_ms, 0.5) / untraced_p50 - 1.0 : 0.0},
  };
  return result;
}

// ---- --selfcheck ----------------------------------------------------------

struct EpochAnswers {
  bool answered = false;
  std::vector<engine::QueryEpochOutcome> outcomes;
};

bool SameOutcome(const core::EpochOutcome& a, const core::EpochOutcome& b) {
  return a.verified == b.verified &&
         std::bit_cast<uint64_t>(a.result.value) ==
             std::bit_cast<uint64_t>(b.result.value) &&
         a.result.count == b.result.count && a.contributors == b.contributors &&
         std::bit_cast<uint64_t>(a.coverage) == std::bit_cast<uint64_t>(b.coverage);
}

StatusOr<std::vector<EpochAnswers>> RunnerAnswers(const WorkloadSpec& spec,
                                                  uint64_t seed, uint32_t epochs,
                                                  runner::EngineTransport transport) {
  runner::EngineExperimentConfig config;
  config.queries = EngineSchedule(spec, epochs);
  config.num_sources = spec.num_sources;
  config.fanout = WorkloadSpec::kFanout;
  config.scale_pow10 = WorkloadSpec::kScalePow10;
  config.epochs = epochs;
  config.seed = seed;
  config.threads = WorkloadSpec::kPoolLanes;
  config.loss_rate = spec.loss_rate;
  config.max_retries = spec.max_retries;
  config.transport = transport;
  config.pipeline = spec.pipeline;
  std::vector<EpochAnswers> answers(epochs + 1);
  config.on_epoch_outcomes =
      [&answers](uint64_t epoch, bool answered,
                 const std::vector<engine::QueryEpochOutcome>& outcomes) {
        answers[epoch].answered = answered;
        if (answered) answers[epoch].outcomes = outcomes;
      };
  auto run = runner::RunEngineExperiment(config);
  if (!run.ok()) return run.status();
  return answers;
}

int SelfCheck(const WorkloadSpec& spec, uint64_t seed) {
  // Six epochs cover a churn boundary on dashboard_churn.
  constexpr uint32_t kEpochs = 6;
  auto d = SetUp(spec, seed, /*traced=*/false, /*warmup=*/false);
  if (!d.ok()) {
    std::fprintf(stderr, "set-up: %s\n", d.status().ToString().c_str());
    return 1;
  }
  std::vector<EpochRecord> mine;
  for (uint32_t e = 1; e <= kEpochs; ++e) mine.push_back(d.value()->Step());
  RunResult oracle;
  CheckRecords(*d.value(), mine, &oracle);
  for (const std::string& e : oracle.errors) std::fprintf(stderr, "oracle: %s\n", e.c_str());
  int failures = static_cast<int>(oracle.failed);

  std::vector<runner::EngineTransport> references = {runner::EngineTransport::kSim};
  if (spec.udp) references.insert(references.begin(), runner::EngineTransport::kUdp);
  for (runner::EngineTransport t : references) {
    const char* name = t == runner::EngineTransport::kUdp ? "udp" : "sim";
    auto ref = RunnerAnswers(spec, seed, kEpochs, t);
    if (!ref.ok()) {
      std::fprintf(stderr, "RunEngineExperiment(%s): %s\n", name,
                   ref.status().ToString().c_str());
      return 1;
    }
    for (const EpochRecord& rec : mine) {
      const EpochAnswers& want = ref.value()[rec.epoch];
      bool same = want.answered == rec.answered &&
                  (!rec.answered || want.outcomes.size() == rec.answers.size());
      for (size_t i = 0; same && rec.answered && i < rec.answers.size(); ++i) {
        const QueryAnswer& a = rec.answers[i];
        const engine::QueryEpochOutcome& w = want.outcomes[i];
        core::EpochOutcome got;
        got.verified = a.verified;
        got.result.value = a.value;
        got.result.count = a.count;
        got.coverage = a.coverage;
        got.contributors = a.same_contributors ? rec.Contributors()
                                               : std::vector<uint32_t>{};
        same = w.query_id == a.query.query_id && SameOutcome(got, w.outcome);
      }
      std::printf("# selfcheck %s epoch %llu vs RunEngineExperiment(%s): %s\n",
                  spec.name.c_str(), static_cast<unsigned long long>(rec.epoch),
                  name, same ? "equal" : "DIFFERENT");
      failures += same ? 0 : 1;
    }
  }
  std::printf("# selfcheck %s: %s\n", spec.name.c_str(), failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

// ---- --determinism --------------------------------------------------------

std::map<std::string, double> Counts(const WorkloadSpec& spec, const Options& opt,
                                     double seconds) {
  Options o = opt;
  o.seconds = seconds;
  o.setups = 1;
  std::map<std::string, double> counts;
  for (const Metric& m : EndToEnd(spec, o).metrics) counts[m.name] = m.value;
  for (const Metric& m : Layers(spec, o).metrics) counts[m.name] = m.value;
  return counts;
}

int Determinism(WorkloadSpec spec, const Options& opt) {
  spec.census_epochs = 12;  // covers two churn boundaries
  const auto a = Counts(spec, opt, 0.0);
  const auto b = Counts(spec, opt, 1.0);  // a longer run, same seed
  int failures = 0;
  for (const char* name : {"wire_kb_per_epoch", "ok_share", "coverage_mean",
                           "engine.plan_channels", "net.attempts_per_epoch"}) {
    const bool same = std::bit_cast<uint64_t>(a.at(name)) ==
                      std::bit_cast<uint64_t>(b.at(name));
    std::printf("# determinism %s %s: %.17g vs %.17g %s\n", spec.name.c_str(), name,
                a.at(name), b.at(name), same ? "identical" : "DIFFERENT");
    failures += same ? 0 : 1;
  }
  std::printf("# determinism %s: %s\n", spec.name.c_str(), failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "epoch_bench: %s\nusage: epoch_bench --workload NAME --seed N "
               "[--seconds S] [--trace 0|1] [--selfcheck | "
               "--determinism]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  ProcessAge();
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--selfcheck") {
      opt.selfcheck = true;
    } else if (arg == "--determinism") {
      opt.determinism = true;
    } else {
      return Usage(("unknown argument '" + arg + "'").c_str());
    }
  }
  auto spec = MakeWorkload(opt.workload);
  if (!spec.ok()) return Usage(spec.status().ToString().c_str());

  std::printf("%s\n", HostRecord().c_str());
  std::printf("{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
              "\"num_sources\": %u, \"queries\": %zu, \"transport\": \"%s\", "
              "\"pool_lanes\": %u}\n",
              JsonString(opt.workload).c_str(),
              static_cast<unsigned long long>(opt.seed), JsonNumber(opt.seconds).c_str(),
              opt.trace ? 1 : 0, spec.value().num_sources, spec.value().queries.size(),
              spec.value().udp ? "udp" : "sim", WorkloadSpec::kPoolLanes);
  if (opt.selfcheck) return SelfCheck(spec.value(), opt.seed);
  if (opt.determinism) return Determinism(spec.value(), opt);
  RunResult result = opt.trace ? Layers(spec.value(), opt) : EndToEnd(spec.value(), opt);
  if (result.metrics.empty()) {  // set-up failed: nothing was measured
    for (const std::string& e : result.errors) std::fprintf(stderr, "%s\n", e.c_str());
    return 1;
  }
  PrintResult(result);
  return 0;
}

}  // namespace
}  // namespace epochbench

int main(int argc, char** argv) { return epochbench::Main(argc, argv); }
