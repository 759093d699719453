#include "deployment.h"

#include <bit>
#include <utility>

#include "common/bytes.h"
#include "common/timer.h"
#include "engine/query_spec.h"
#include "sies/session.h"

namespace epochbench {

namespace {

// dashboard_churn's query set. The last line is the band query that
// churns; the first fresh id sits well above every salt the initial
// plan allocates (each compiled band takes ids after its own).
constexpr char kDashboardQueries[] =
    "avg temperature\n"
    "variance temperature\n"
    "sum temperature\n"
    "count temperature\n"
    "avg humidity\n"
    "sum temperature where 20 <= temperature <= 30\n"
    "count temperature between 25 and 45\n"
    "avg humidity where 30 <= humidity <= 60\n";
constexpr uint32_t kFirstChurnId = 256;
constexpr uint32_t kChurnIdStride = 64;  // > 2 kinds x 2 ceil(log2 D) salts
constexpr uint32_t kChurnIdCycle = 200;  // ids stay below 2^14

// The j-th band of the churning query (j = 0 is the initial one).
core::Query ChurnBand(const WorkloadSpec& spec, uint64_t j) {
  core::Query band = spec.queries.back();
  const double lo = 30.0 + 2.0 * static_cast<double>(j % 5);
  band.band->lo = lo;
  band.band->hi = lo + 30.0;
  if (j > 0) {
    band.query_id = kFirstChurnId +
                    kChurnIdStride * static_cast<uint32_t>((j - 1) % kChurnIdCycle);
  }
  return band;
}

}  // namespace

StatusOr<WorkloadSpec> MakeWorkload(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "scale_sum") {
    auto queries = engine::ParseQueriesText("sum temperature\n");
    if (!queries.ok()) return queries.status();
    spec.num_sources = 2048;
    spec.queries = std::move(queries).value();
    spec.census_epochs = 300;
  } else if (name == "dashboard_churn") {
    auto queries = engine::ParseQueriesText(kDashboardQueries);
    if (!queries.ok()) return queries.status();
    spec.num_sources = 512;
    spec.queries = std::move(queries).value();
    spec.churn_every = 5;
    spec.census_epochs = 110;
  } else if (name == "udp_lossy") {
    spec.num_sources = 512;
    spec.queries = engine::DefaultQueryMix(5);
    spec.udp = true;
    spec.loss_rate = 0.1;
    spec.max_retries = 1;
    spec.pipeline = true;
    spec.census_epochs = 500;
  } else {
    return Status::InvalidArgument(
        "unknown workload '" + name +
        "' (scale_sum | dashboard_churn | udp_lossy)");
  }
  return spec;
}

ChurnOps ChurnAt(const WorkloadSpec& spec, uint64_t epoch) {
  ChurnOps ops;
  if (spec.churn_every == 0 || epoch % spec.churn_every != 0) return ops;
  const uint64_t j = epoch / spec.churn_every;
  ops.admit.push_back(ChurnBand(spec, j));
  ops.teardown.push_back(ChurnBand(spec, j - 1).query_id);
  return ops;
}

std::vector<runner::EngineQuerySchedule> EngineSchedule(
    const WorkloadSpec& spec, uint32_t epochs) {
  std::vector<runner::EngineQuerySchedule> schedule;
  for (const core::Query& q : spec.queries) {
    schedule.push_back({q, /*admit_epoch=*/1, /*teardown_epoch=*/0});
  }
  if (spec.churn_every == 0) return schedule;
  schedule.back().teardown_epoch = spec.churn_every;
  for (uint64_t j = 1; j * spec.churn_every <= epochs; ++j) {
    schedule.push_back({ChurnBand(spec, j), j * spec.churn_every,
                        (j + 1) * spec.churn_every});
  }
  return schedule;
}

std::vector<uint32_t> EpochRecord::Contributors() const {
  std::vector<uint32_t> out;
  for (size_t w = 0; w < contributor_bits.size(); ++w) {
    for (uint64_t bits = contributor_bits[w]; bits != 0; bits &= bits - 1) {
      out.push_back(static_cast<uint32_t>(64 * w + std::countr_zero(bits)));
    }
  }
  return out;
}

net::Transport& Deployment::raw_transport() {
  if (udp) return *udp;
  return *sim;
}

net::AggregationProtocol& Deployment::protocol() {
  if (traced_protocol) return *traced_protocol;
  return *scheduler;
}

EpochRecord Deployment::Step() {
  EpochRecord rec;
  rec.epoch = next_epoch++;
  ChurnOps ops = ChurnAt(spec, rec.epoch);
  for (core::Query& q : ops.admit) scheduler->QueueAdmit(std::move(q));
  for (uint32_t id : ops.teardown) scheduler->QueueTeardown(id);

  Stopwatch watch;
  Status applied = scheduler->ApplyPending(rec.epoch);
  rec.apply_pending_s = watch.ElapsedSeconds();
  if (!applied.ok()) {
    rec.status = applied;
  } else if (!engine->HasLiveChannels()) {
    rec.status = Status::FailedPrecondition("the live plan is empty");
  } else {
    Stopwatch run_watch;
    auto report = network->RunEpoch(protocol(), rec.epoch);
    rec.run_epoch_s = run_watch.ElapsedSeconds();
    rec.wall_s = watch.ElapsedSeconds();
    if (!report.ok()) {
      rec.status = report.status();
    } else {
      const net::EpochReport& r = report.value();
      rec.answered = r.answered;
      rec.coverage = r.coverage;
      rec.wire_bytes = r.source_to_aggregator.bytes +
                       r.aggregator_to_aggregator.bytes +
                       r.aggregator_to_querier.bytes;
    }
  }
  if (traced_protocol) rec.layers = layer_trace.Take();
  if (!rec.status.ok()) return rec;

  // Outside the timed window: what the plan was and what was answered.
  const engine::QueryRegistry& registry = engine->registry();
  rec.plan_channels = static_cast<uint32_t>(registry.plan().Count());
  rec.envelope_bytes = engine->WireBytes();
  const std::vector<engine::QueryEpochOutcome>& outcomes =
      scheduler->last_outcomes();
  const std::vector<uint32_t>* first = nullptr;
  if (rec.answered) {
    rec.outcome_count = outcomes.size();
    if (!outcomes.empty()) first = &outcomes.front().outcome.contributors;
  }
  if (first != nullptr) {
    rec.contributor_bits.assign((spec.num_sources + 63) / 64, 0);
    for (size_t k = 0; k < first->size(); ++k) {
      const uint32_t i = (*first)[k];
      if (i >= spec.num_sources || (k > 0 && i <= (*first)[k - 1])) {
        rec.contributors_sorted = false;
        break;
      }
      rec.contributor_bits[i / 64] |= uint64_t{1} << (i % 64);
    }
  }
  for (const engine::ActiveQuery& aq : registry.active()) {
    auto slots = registry.plan().ChannelsOf(aq.query);
    rec.naive_channels += slots.ok() ? slots.value().size()
                                     : core::ChannelCount(aq.query.aggregate);
    QueryAnswer answer;
    answer.query = aq.query;
    if (rec.answered) {
      for (const engine::QueryEpochOutcome& qo : outcomes) {
        if (qo.query_id != aq.query.query_id) continue;
        answer.found = true;
        answer.verified = qo.outcome.verified;
        answer.value = qo.outcome.result.value;
        answer.count = qo.outcome.result.count;
        answer.coverage = qo.outcome.coverage;
        answer.same_contributors = qo.outcome.contributors == *first;
        break;
      }
    }
    rec.answers.push_back(std::move(answer));
  }
  return rec;
}

StatusOr<std::unique_ptr<Deployment>> SetUp(const WorkloadSpec& spec,
                                            uint64_t seed, bool traced,
                                            bool warmup) {
  auto d = std::make_unique<Deployment>();
  d->spec = spec;
  d->seed = seed;
  Stopwatch total;

  Stopwatch watch;
  auto topology =
      net::Topology::BuildCompleteTree(spec.num_sources, WorkloadSpec::kFanout);
  if (!topology.ok()) return topology.status();
  d->network = std::make_unique<net::Network>(std::move(topology).value());
  if (spec.udp) {
    d->udp = std::make_unique<net::UdpTransport>();
    std::vector<net::NodeId> nodes;
    for (net::NodeId id = 0; id < d->network->topology().num_nodes(); ++id) {
      nodes.push_back(id);
    }
    nodes.push_back(net::kQuerierId);  // the tree root reports here
    SIES_RETURN_IF_ERROR(d->udp->Start(nodes));
  } else {
    d->sim = std::make_unique<net::SimTransport>();
  }
  net::Transport* backend = &d->raw_transport();
  if (traced) {
    d->traced_transport =
        std::make_unique<TracedTransport>(*backend, d->layer_trace);
    backend = d->traced_transport.get();
  }
  SIES_RETURN_IF_ERROR(d->network->SetTransport(backend));
  if (spec.loss_rate > 0.0) {
    SIES_RETURN_IF_ERROR(d->network->SetLossRate(spec.loss_rate, seed));
    d->network->SetMaxRetries(spec.max_retries);
  }
  d->setup.transport_start = watch.ElapsedSeconds();

  workload::TraceConfig trace_config;
  trace_config.num_sources = spec.num_sources;
  trace_config.scale_pow10 = WorkloadSpec::kScalePow10;
  trace_config.seed = seed;
  d->trace = std::make_shared<workload::TraceGenerator>(trace_config);

  watch.Restart();
  // value_bytes = 8, as RunEngineExperiment: sums of squares overflow 4.
  auto params = core::MakeParams(spec.num_sources, seed, /*value_bytes=*/8);
  if (!params.ok()) return params.status();
  core::QuerierKeys keys = core::GenerateKeys(params.value(), EncodeUint64(seed));
  d->setup.keygen = watch.ElapsedSeconds();

  watch.Restart();
  d->engine = std::make_shared<engine::MultiQueryEngine>(params.value(),
                                                         std::move(keys));
  d->scheduler = std::make_unique<engine::EpochScheduler>(
      d->engine, d->network->topology(),
      [trace = d->trace](uint32_t index, uint64_t epoch) {
        return trace->ReadingAt(index, epoch);
      });
  d->pool = std::make_unique<common::ThreadPool>(WorkloadSpec::kPoolLanes);
  d->network->SetThreadPool(d->pool.get());
  d->scheduler->SetThreadPool(d->pool.get());
  d->scheduler->SetPipelining(spec.pipeline);
  if (traced) {
    d->traced_protocol =
        std::make_unique<TracedProtocol>(*d->scheduler, d->layer_trace);
  }
  d->setup.engine = watch.ElapsedSeconds();

  watch.Restart();
  for (const core::Query& q : spec.queries) d->scheduler->QueueAdmit(q);
  SIES_RETURN_IF_ERROR(d->scheduler->ApplyPending(d->next_epoch));
  if (!d->engine->HasLiveChannels()) {
    return Status::FailedPrecondition("admission left the live plan empty");
  }
  d->setup.admit = watch.ElapsedSeconds();

  if (warmup) {
    // The querier's epoch-key cache holds 3C + 2 salted epochs for a
    // C-channel plan and gains C per epoch: run until it is full. The
    // count depends on the plan only, never on timing, so every run
    // starts its timed epochs at the same epoch number.
    watch.Restart();
    const size_t channels = d->engine->registry().plan().Count();
    const size_t epochs = (3 * channels + 2 + channels - 1) / channels;
    for (size_t i = 0; i < epochs; ++i) {
      EpochRecord rec = d->Step();
      if (!rec.status.ok()) return rec.status;
    }
    d->setup.warmup = watch.ElapsedSeconds();
  }
  d->setup.total = total.ElapsedSeconds();
  return d;
}

Status CheckAgainstOracle(const EpochRecord& record,
                          workload::TraceGenerator& readings,
                          uint32_t num_sources, bool lossless) {
  if (!record.status.ok()) return record.status;
  if (!record.answered) return Status::OK();
  const std::string at = " at epoch " + std::to_string(record.epoch);
  if (record.outcome_count != record.answers.size()) {
    return Status::Internal("querier answered " +
                            std::to_string(record.outcome_count) + " of " +
                            std::to_string(record.answers.size()) +
                            " live queries" + at);
  }
  if (!record.contributors_sorted) {
    return Status::Internal("contributor set is not a sorted index set" + at);
  }
  const std::vector<uint32_t> who = record.Contributors();
  if (lossless && who.size() != num_sources) {
    return Status::Internal("lossless epoch lost contributors" + at);
  }
  std::vector<core::SensorReading> inputs;
  inputs.reserve(who.size());
  for (uint32_t index : who) inputs.push_back(readings.ReadingAt(index, record.epoch));

  for (const QueryAnswer& a : record.answers) {
    const std::string which = " for query " + std::to_string(a.query.query_id) + at;
    if (!a.found) return Status::Internal("no answer" + which);
    if (!a.verified) return Status::Internal("answer failed verification" + which);
    if (!a.same_contributors) {
      return Status::Internal("answers disagree on the contributor set" + which);
    }
    uint64_t sums[3] = {0, 0, 0};  // indexed by core::Channel
    for (core::Channel ch : core::ActiveChannels(a.query)) {
      for (const core::SensorReading& reading : inputs) {
        auto v = core::ChannelValue(a.query, ch, reading);
        if (!v.ok()) return v.status();
        sums[static_cast<uint32_t>(ch)] += v.value();
      }
    }
    auto expected = core::AssembleOutcome(
        a.query, num_sources, sums[0], sums[1], sums[2], /*verified=*/true, who);
    if (!expected.ok()) return expected.status();
    const core::EpochOutcome& e = expected.value();
    if (std::bit_cast<uint64_t>(e.result.value) != std::bit_cast<uint64_t>(a.value) ||
        e.result.count != a.count ||
        std::bit_cast<uint64_t>(e.coverage) != std::bit_cast<uint64_t>(a.coverage)) {
      return Status::Internal("answer " + std::to_string(a.value) +
                              " != oracle " + std::to_string(e.result.value) + which);
    }
  }
  return Status::OK();
}

}  // namespace epochbench
