#include "telemetry/epoch_timeline.h"

#include <algorithm>
#include <cstdio>

#include "telemetry/trace.h"

namespace sies::telemetry {

namespace {

void AppendDouble(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out += buf;
}

}  // namespace

void EpochTimeline::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::max<size_t>(1, capacity);
  while (ring_.size() > capacity_) ring_.pop_front();
}

size_t EpochTimeline::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void EpochTimeline::BeginEpoch(uint64_t epoch) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  current_ = EpochRecord{};
  current_.epoch = epoch;
  for (auto& lanes : lanes_) lanes.clear();
  open_ = true;
}

void EpochTimeline::Record(Phase phase, double seconds,
                           const ChannelVerifySample* channel) {
  if (!enabled()) return;
  // A channel sample declares the lane that paid for its verify.
  const uint32_t tid =
      channel != nullptr ? channel->tid : Tracer::CurrentThreadId();
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) return;
  PhaseStat& stat = current_.phases[static_cast<size_t>(phase)];
  stat.total_seconds += seconds;
  stat.max_call_seconds = std::max(stat.max_call_seconds, seconds);
  ++stat.calls;
  if (channel != nullptr) {
    current_.channels.push_back(*channel);
    if (!channel->verified) ++current_.tampered_channels;
  }
  std::vector<LaneAcc>& lanes = lanes_[static_cast<size_t>(phase)];
  auto lane = std::find_if(lanes.begin(), lanes.end(),
                           [tid](const LaneAcc& l) { return l.tid == tid; });
  if (lane == lanes.end()) {
    lanes.push_back(LaneAcc{tid, seconds});
  } else {
    lane->seconds += seconds;
  }
}

void EpochTimeline::EndEpoch(const EpochVerdict& verdict,
                             double wall_seconds) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) return;
  open_ = false;
  current_.wall_seconds = wall_seconds;
  static_cast<EpochVerdict&>(current_) = verdict;
  // Channel samples arrive in pool-completion order; serve them in wire
  // order so consecutive scrapes of the same epoch compare equal.
  std::stable_sort(current_.channels.begin(), current_.channels.end(),
                   [](const ChannelVerifySample& a,
                      const ChannelVerifySample& b) { return a.slot < b.slot; });
  double attributed = 0.0;
  double critical = 0.0;
  for (size_t p = 0; p < kPhaseCount; ++p) {
    PhaseStat& stat = current_.phases[p];
    double lane_max = 0.0;
    for (const LaneAcc& lane : lanes_[p]) {
      lane_max = std::max(lane_max, lane.seconds);
    }
    stat.lane_max_seconds = lane_max;
    // The evaluate breakdown is already inside evaluate's interval.
    if (WithinEvaluate(static_cast<Phase>(p))) continue;
    attributed += stat.total_seconds;
    critical += lane_max;
  }
  current_.attributed_seconds = attributed;
  current_.critical_path_seconds = std::min(critical, current_.wall_seconds);
  ring_.push_back(std::move(current_));
  current_ = EpochRecord{};
  ++epochs_recorded_;
  while (ring_.size() > capacity_) ring_.pop_front();
}

std::vector<EpochRecord> EpochTimeline::Last(size_t k) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = std::min(k, ring_.size());
  return std::vector<EpochRecord>(ring_.end() - static_cast<ptrdiff_t>(n),
                                  ring_.end());
}

size_t EpochTimeline::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t EpochTimeline::epochs_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epochs_recorded_;
}

void EpochTimeline::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  epochs_recorded_ = 0;
  open_ = false;
  current_ = EpochRecord{};
  for (auto& lanes : lanes_) lanes.clear();
}

std::string EpochTimeline::ToJson(size_t last_k) const {
  const std::vector<EpochRecord> records = Last(last_k);
  std::string out = "{\"window\": " + std::to_string(last_k) +
                    ", \"capacity\": " + std::to_string(capacity()) +
                    ", \"epochs_recorded\": " +
                    std::to_string(epochs_recorded()) + ", \"epochs\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const EpochRecord& r = records[i];
    out += "  {\"epoch\": " + std::to_string(r.epoch) + ", \"wall_seconds\": ";
    AppendDouble(out, r.wall_seconds);
    out += ", \"attributed_seconds\": ";
    AppendDouble(out, r.attributed_seconds);
    out += ", \"critical_path_seconds\": ";
    AppendDouble(out, r.critical_path_seconds);
    out += ", \"answered\": ";
    out += r.answered ? "true" : "false";
    out += ", \"verified\": ";
    out += r.verified ? "true" : "false";
    out += ", \"coverage\": ";
    AppendDouble(out, r.coverage);
    out += ", \"live_queries\": " + std::to_string(r.live_queries);
    out += ", \"contributors\": " + std::to_string(r.contributors);
    out += ", \"expected_contributors\": " +
           std::to_string(r.expected_contributors);
    out += ", \"tampered_channels\": " + std::to_string(r.tampered_channels);
    out += ",\n   \"phases\": [";
    for (size_t p = 0; p < kPhaseCount; ++p) {
      const PhaseStat& stat = r.phases[p];
      const Phase phase = static_cast<Phase>(p);
      if (p > 0) out += ", ";
      out += "{\"phase\": \"";
      out += PhaseName(phase);
      out += "\"";
      if (WithinEvaluate(phase)) out += ", \"within\": \"evaluate\"";
      out += ", \"total_seconds\": ";
      AppendDouble(out, stat.total_seconds);
      out += ", \"lane_max_seconds\": ";
      AppendDouble(out, stat.lane_max_seconds);
      out += ", \"max_call_seconds\": ";
      AppendDouble(out, stat.max_call_seconds);
      out += ", \"calls\": " + std::to_string(stat.calls) + "}";
    }
    out += "],\n   \"channels\": [";
    for (size_t c = 0; c < r.channels.size(); ++c) {
      const ChannelVerifySample& ch = r.channels[c];
      if (c > 0) out += ", ";
      out += "{\"slot\": " + std::to_string(ch.slot) +
             ", \"salt_id\": " + std::to_string(ch.salt_id) + ", \"kind\": \"";
      out += ch.kind;
      out += "\"";
      if (ch.bucket_level >= 0) {
        out += ", \"bucket_level\": " + std::to_string(ch.bucket_level) +
               ", \"bucket_index\": " + std::to_string(ch.bucket_index);
      }
      out += ", \"seconds\": ";
      AppendDouble(out, ch.seconds);
      out += ", \"verified\": ";
      out += ch.verified ? "true" : "false";
      out += ", \"tid\": " + std::to_string(ch.tid) + "}";
    }
    out += "]}";
    out += (i + 1 < records.size()) ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

EpochTimeline& EpochTimeline::Global() {
  static EpochTimeline* timeline = new EpochTimeline();
  return *timeline;
}

}  // namespace sies::telemetry
