#include "runner/engine_runner.h"

#include <chrono>
#include <thread>
#include <unordered_map>

#include "common/timer.h"
#include "net/udp_transport.h"
#include "ops/admin_server.h"
#include "telemetry/epoch_timeline.h"
#include "telemetry/phase.h"

namespace sies::runner {

StatusOr<EngineExperimentResult> RunEngineExperiment(
    const EngineExperimentConfig& config) {
  if (config.queries.empty()) {
    return Status::InvalidArgument("engine experiment needs >= 1 query");
  }
  auto topology =
      net::Topology::BuildCompleteTree(config.num_sources, config.fanout);
  if (!topology.ok()) return topology.status();
  // Declared before the network so the network (which may hold a raw
  // pointer to it) is destroyed first on every exit path.
  std::unique_ptr<net::UdpTransport> udp;
  net::Network network(std::move(topology).value());
  if (config.transport == EngineTransport::kUdp) {
    net::UdpTransportOptions udp_options;
    udp_options.ack_timeout_ms = config.udp_ack_timeout_ms;
    udp = std::make_unique<net::UdpTransport>(udp_options);
    std::vector<net::NodeId> nodes;
    nodes.reserve(network.topology().num_nodes() + 1);
    for (net::NodeId id = 0; id < network.topology().num_nodes(); ++id) {
      nodes.push_back(id);
    }
    nodes.push_back(net::kQuerierId);  // tree root reports to the querier
    SIES_RETURN_IF_ERROR(udp->Start(nodes));
    SIES_RETURN_IF_ERROR(network.SetTransport(udp.get()));
  }

  workload::TraceConfig trace_config;
  trace_config.num_sources = config.num_sources;
  trace_config.scale_pow10 = config.scale_pow10;
  trace_config.seed = config.seed;
  auto trace = std::make_shared<workload::TraceGenerator>(trace_config);

  // value_bytes = 8: the sum-of-squares channel of VARIANCE/STDDEV
  // queries sums N × value² and overflows the 4-byte default long
  // before the paper's N = 1024.
  auto params = core::MakeParams(config.num_sources, config.seed,
                                 /*value_bytes=*/8);
  if (!params.ok()) return params.status();
  core::QuerierKeys keys =
      core::GenerateKeys(params.value(), EncodeUint64(config.seed));
  auto eng = std::make_shared<engine::MultiQueryEngine>(params.value(),
                                                        std::move(keys));
  engine::EpochScheduler scheduler(
      eng, network.topology(), [trace](uint32_t index, uint64_t epoch) {
        return trace->ReadingAt(index, epoch);
      });

  common::ThreadPool pool(config.threads);
  network.SetThreadPool(&pool);
  scheduler.SetThreadPool(&pool);
  scheduler.SetPipelining(config.pipeline);

  // Ops plane: the admin server scrapes the scheduler's mutex-guarded
  // snapshot from its own thread while epochs run. Declared after the
  // scheduler so every exit path stops the server before the scheduler
  // dies.
  std::unique_ptr<ops::AdminServer> admin;
  if (config.ops_port >= 0) {
    ops::AdminOptions options;
    options.port = static_cast<uint16_t>(config.ops_port);
    options.ready_staleness_seconds = config.ops_staleness_seconds;
    auto started = ops::AdminServer::Start(options, [&scheduler]() {
      std::vector<ops::QueryInfo> out;
      for (const engine::QueryLiveStats& q : scheduler.SnapshotQueries()) {
        ops::QueryInfo info;
        info.id = q.query_id;
        info.sql = q.sql;
        info.admitted_epoch = q.admitted_epoch;
        info.slots = q.slots;
        info.answered_epochs = q.answered_epochs;
        info.verified_epochs = q.verified_epochs;
        info.unverified_epochs = q.unverified_epochs;
        info.partial_epochs = q.partial_epochs;
        info.last_value = q.last_value;
        info.last_coverage = q.last_coverage;
        info.last_epoch = q.last_epoch;
        out.push_back(std::move(info));
      }
      return out;
    });
    if (!started.ok()) return started.status();
    admin = std::move(started).value();
    // Keys and topology exist by now; epoch-key caches warm during the
    // first round, so /readyz flips once epoch 1 reports.
    admin->SetProvisioned(true);
    if (config.on_ops_ready) config.on_ops_ready(admin->port());
  }

  // Owns the adversary the network points at; lives to the end of the run.
  auto faults = InstallFaults(network, config.adversary, config.loss_rate,
                              config.max_retries, config.seed);
  if (!faults.ok()) return faults.status();

  EngineExperimentResult result;
  result.epochs = config.epochs;
  std::unordered_map<uint32_t, size_t> stats_index;
  std::vector<double> coverage_sums(config.queries.size(), 0.0);
  result.queries.reserve(config.queries.size());
  for (const EngineQuerySchedule& sched : config.queries) {
    EngineQueryStats stats;
    stats.query_id = sched.query.query_id;
    stats.sql = sched.query.ToSql();
    stats_index[sched.query.query_id] = result.queries.size();
    result.queries.push_back(std::move(stats));
  }

  // Runs at the END of every epoch iteration, including idle and
  // unanswered ones: liveness stamp, test hook, pacing sleep.
  auto finish_epoch = [&](uint64_t epoch, bool verified,
                          const Stopwatch& watch) {
    if (admin) admin->ReportEpoch(epoch, verified);
    if (config.after_epoch) config.after_epoch(epoch);
    if (config.epoch_pacing_ms > 0) {
      const double remaining =
          config.epoch_pacing_ms / 1000.0 - watch.ElapsedSeconds();
      if (remaining > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(remaining));
      }
    }
  };

  CostAccumulator src, agg, qry;
  for (uint64_t epoch = 1; epoch <= config.epochs; ++epoch) {
    Stopwatch epoch_watch;
    // Control plane first: schedule ops go through the boundary queue
    // (the same path an admin thread would use mid-run), and
    // ApplyPending settles the plan — joining any in-flight t+1 key
    // prefetch before it may mutate. One plan per epoch either way.
    for (const EngineQuerySchedule& sched : config.queries) {
      if (std::max<uint64_t>(sched.admit_epoch, 1) == epoch) {
        scheduler.QueueAdmit(sched.query);
      }
    }
    for (const EngineQuerySchedule& sched : config.queries) {
      if (sched.teardown_epoch != 0 && sched.teardown_epoch == epoch) {
        scheduler.QueueTeardown(sched.query.query_id);
      }
    }
    SIES_RETURN_IF_ERROR(scheduler.ApplyPending(epoch));
    if (!eng->HasLiveChannels()) {
      ++result.idle_epochs;  // nothing to serve: skip the radio round
      finish_epoch(epoch, /*verified=*/true, epoch_watch);
      continue;
    }
    result.channel_epochs += eng->registry().plan().Count();
    for (const engine::ActiveQuery& aq : eng->registry().active()) {
      // A live query's compiled channel count (== ChannelCount for
      // plain queries, buckets × kinds for band queries) is what a
      // dedicated round per query-per-bucket would put on the wire.
      auto slots = eng->registry().plan().ChannelsOf(aq.query);
      const uint64_t compiled =
          slots.ok() ? slots.value().size()
                     : core::ChannelCount(aq.query.aggregate);
      result.naive_channel_epochs += compiled;
      auto it = stats_index.find(aq.query.query_id);
      if (it != stats_index.end()) {
        result.queries[it->second].wire_channels =
            static_cast<uint32_t>(compiled);
      }
    }

    telemetry::EpochScope scope(epoch);
    auto report = network.RunEpoch(scheduler, epoch);
    if (!report.ok()) return report.status();
    const net::EpochReport& r = report.value();
    src.Add(r.source_cpu.MeanSeconds());
    agg.Add(r.aggregator_cpu.MeanSeconds());
    qry.Add(r.querier_cpu.MeanSeconds());
    result.retransmits += r.retransmits;
    bool epoch_verified = r.answered;
    if (!r.answered) {
      ++result.unanswered_epochs;
    } else {
      ++result.answered_epochs;
      for (const engine::QueryEpochOutcome& qo :
           scheduler.last_outcomes()) {
        auto it = stats_index.find(qo.query_id);
        if (it == stats_index.end()) continue;
        EngineQueryStats& stats = result.queries[it->second];
        ++stats.answered_epochs;
        coverage_sums[it->second] += qo.outcome.coverage;
        if (qo.outcome.verified) {
          ++stats.verified_epochs;
          stats.last_value = qo.outcome.result.value;
          if (qo.outcome.coverage < 1.0) ++stats.partial_epochs;
        } else {
          ++stats.unverified_epochs;
          result.all_verified = false;
          epoch_verified = false;
        }
      }
    }
    if (config.on_epoch_outcomes) {
      config.on_epoch_outcomes(epoch, r.answered, scheduler.last_outcomes());
    }
    scope.End({.answered = r.answered,
               .verified = epoch_verified,
               .coverage = r.coverage,
               .live_queries =
                   static_cast<uint32_t>(eng->registry().active().size()),
               .contributors = r.contributing_sources,
               .expected_contributors = r.expected_contributors});
    if (admin && epoch == 1) {
      // First round derived + cached every live channel's epoch keys.
      admin->SetKeysWarm(true);
    }
    finish_epoch(epoch, epoch_verified, epoch_watch);
  }
  for (size_t i = 0; i < result.queries.size(); ++i) {
    if (result.queries[i].answered_epochs > 0) {
      result.queries[i].mean_coverage =
          coverage_sums[i] / result.queries[i].answered_epochs;
    }
  }
  result.source_cpu_seconds = src.MeanSeconds();
  result.aggregator_cpu_seconds = agg.MeanSeconds();
  result.querier_cpu_seconds = qry.MeanSeconds();
  result.lost_messages = network.lost_messages();
  scheduler.JoinPrefetch();
  result.prefetched_epochs = scheduler.prefetched_epochs();
  if (udp) {
    result.udp_datagrams_sent = udp->datagrams_sent();
    result.udp_malformed_datagrams = udp->malformed_datagrams();
    udp->Stop();
  }
  return result;
}

}  // namespace sies::runner
