// One SIES deployment assembled from the public module APIs, in the
// order runner::RunEngineExperiment builds it:
//
//   net::Topology -> net::Network + Sim/UdpTransport
//     -> workload::TraceGenerator(seed) -> core::MakeParams/GenerateKeys
//     -> engine::MultiQueryEngine -> engine::EpochScheduler
//     -> common::ThreadPool
//
// plus the benchmark's workloads, the closed-loop epoch step, and the
// plaintext oracle every timed epoch is checked against.
#ifndef EPOCHBENCH_DEPLOYMENT_H_
#define EPOCHBENCH_DEPLOYMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/epoch_scheduler.h"
#include "layer_trace.h"
#include "net/network.h"
#include "net/transport.h"
#include "net/udp_transport.h"
#include "runner/engine_runner.h"
#include "workload/workload.h"

namespace epochbench {

/// Everything that tells one workload from another. All three run two
/// pool lanes, fanout 4 and scale 2; the seed comes from the command line.
struct WorkloadSpec {
  std::string name;
  uint32_t num_sources = 0;
  std::vector<core::Query> queries;  ///< admitted at epoch 1
  bool udp = false;
  double loss_rate = 0.0;
  uint32_t max_retries = 0;
  bool pipeline = false;
  /// Every `churn_every`-th epoch the band query is torn down and a new
  /// band (fresh id) admitted through the queued control plane. 0 = never.
  uint32_t churn_every = 0;
  /// Timed epochs the count metrics are taken over (and the least a run
  /// times), so they never depend on how many epochs fit in the run.
  uint32_t census_epochs = 0;

  static constexpr uint32_t kFanout = 4;
  static constexpr uint32_t kScalePow10 = 2;
  static constexpr uint32_t kPoolLanes = 2;
};

/// The named workload, or an error listing the valid names.
StatusOr<WorkloadSpec> MakeWorkload(const std::string& name);

/// Control-plane ops a churning workload queues before `epoch`: the
/// query to admit and the id to tear down (both empty when none).
struct ChurnOps {
  std::vector<core::Query> admit;
  std::vector<uint32_t> teardown;
};
ChurnOps ChurnAt(const WorkloadSpec& spec, uint64_t epoch);

/// The same workload as a runner::RunEngineExperiment schedule (initial
/// queries plus every churn admission/teardown up to `epochs`).
std::vector<runner::EngineQuerySchedule> EngineSchedule(
    const WorkloadSpec& spec, uint32_t epochs);

/// Wall time of each set-up step, seconds.
struct SetupTimes {
  double keygen = 0;           ///< MakeParams + GenerateKeys
  double engine = 0;           ///< engine + scheduler + pool
  double admit = 0;            ///< QueueAdmit + ApplyPending (compile)
  double transport_start = 0;  ///< transport start + loss config
  double warmup = 0;           ///< epochs until the key caches are full
  double total = 0;
};

/// One query's answer for one epoch, as the oracle needs it.
struct QueryAnswer {
  core::Query query;  ///< the live query (for the oracle)
  bool found = false;  ///< the querier answered this query
  bool verified = false;
  double value = 0;
  uint64_t count = 0;
  double coverage = 0;
  bool same_contributors = false;  ///< equals the epoch's first answer's
};

/// What one epoch did, recorded inside the loop and checked after it.
struct EpochRecord {
  uint64_t epoch = 0;
  Status status;
  bool answered = false;
  double wall_s = 0;          ///< ApplyPending + RunEpoch
  double apply_pending_s = 0;
  double run_epoch_s = 0;
  uint64_t wire_bytes = 0;    ///< radiated, all three edge classes
  double coverage = 0;        ///< EpochReport::coverage
  uint32_t plan_channels = 0;
  uint64_t naive_channels = 0;
  size_t envelope_bytes = 0;
  size_t outcome_count = 0;            ///< answers the querier gave
  /// The contributor set every answer shares, packed one bit per source
  /// so a long run's records stay small.
  std::vector<uint64_t> contributor_bits;
  bool contributors_sorted = true;     ///< strictly increasing, all < N
  std::vector<QueryAnswer> answers;    ///< one per live query
  EpochLayers layers;                  ///< traced runs only

  /// The packed contributor set as increasing source indices.
  std::vector<uint32_t> Contributors() const;
};

/// A running deployment. Members are declared so that destruction runs
/// against construction: nothing outlives what it borrows.
struct Deployment {
  WorkloadSpec spec;
  uint64_t seed = 0;
  LayerTrace layer_trace;  ///< written by the decorators, traced runs only
  std::unique_ptr<net::UdpTransport> udp;
  std::unique_ptr<net::SimTransport> sim;
  std::unique_ptr<TracedTransport> traced_transport;  ///< traced runs only
  std::unique_ptr<common::ThreadPool> pool;
  std::unique_ptr<net::Network> network;
  std::shared_ptr<workload::TraceGenerator> trace;
  std::shared_ptr<engine::MultiQueryEngine> engine;
  std::unique_ptr<engine::EpochScheduler> scheduler;
  std::unique_ptr<TracedProtocol> traced_protocol;  ///< traced runs only
  uint64_t next_epoch = 1;
  SetupTimes setup;

  /// The raw backend (UDP or the owned simulator).
  net::Transport& raw_transport();
  /// What RunEpoch is called with: the scheduler or its traced wrapper.
  net::AggregationProtocol& protocol();

  /// Queues this epoch's churn, then times ApplyPending + RunEpoch.
  /// Records the answers outside the timed window.
  EpochRecord Step();
};

/// Assembles a deployment, admits the workload's queries at epoch 1 and
/// runs the warm-up epochs. With `traced`, layer decorators sit around
/// the transport and the scheduler from the start. `warmup = false`
/// stops after admission (the self-check compares from epoch 1).
StatusOr<std::unique_ptr<Deployment>> SetUp(const WorkloadSpec& spec,
                                            uint64_t seed, bool traced,
                                            bool warmup = true);

/// Checks one epoch against the plaintext oracle: for every live query,
/// Σ core::ChannelValue over the reported contributor set, then
/// core::AssembleOutcome, bit-equal to what the querier answered.
/// Unanswered epochs pass (there is no answer to be wrong).
Status CheckAgainstOracle(const EpochRecord& record,
                          workload::TraceGenerator& readings,
                          uint32_t num_sources, bool lossless);

}  // namespace epochbench

#endif  // EPOCHBENCH_DEPLOYMENT_H_
