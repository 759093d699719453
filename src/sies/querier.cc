#include "sies/querier.h"

#include <cstring>
#include <numeric>
#include <type_traits>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace sies::core {

namespace {
// O(1) probes per evaluation (nothing inside the per-source loops), so
// the warm fig6a hot path stays within the <2% disabled-telemetry
// budget guarded by bench/telemetry_overhead.
struct QuerierMetrics {
  telemetry::Counter* evaluations;
  telemetry::Counter* unverified;
  static const QuerierMetrics& Get() {
    static QuerierMetrics m{
        telemetry::MetricsRegistry::Global().GetCounter(
            "sies_querier_evaluations_total", {{"scheme", "SIES"}}),
        telemetry::MetricsRegistry::Global().GetCounter(
            "sies_querier_unverified_total", {{"scheme", "SIES"}})};
    return m;
  }
};
}  // namespace

Querier::Querier(Params params, QuerierKeys keys)
    : params_(std::move(params)),
      keys_(std::move(keys)),
      cache_(std::make_shared<EpochKeyCache>()) {
  psr_bytes_ = params_.PsrBytes();
  all_sources_.resize(params_.num_sources);
  std::iota(all_sources_.begin(), all_sources_.end(), 0u);
  full_bitmap_.assign(ContributorBitmap::WidthBytes(params_.num_sources),
                      0xFF);
  if (params_.num_sources % 8 != 0 && !full_bitmap_.empty()) {
    full_bitmap_.back() =
        static_cast<uint8_t>(0xFFu >> (8 - params_.num_sources % 8));
  }
}

StatusOr<Evaluation> Querier::Evaluate(
    const Bytes& final_psr, uint64_t epoch,
    const std::vector<uint32_t>& participating) const {
  return EvaluateCore(final_psr.data(), final_psr.size(), epoch,
                      /*wire_envelope=*/false, &participating, nullptr);
}

StatusOr<Evaluation> Querier::EvaluateCore(
    const uint8_t* payload, size_t payload_len, uint64_t epoch,
    bool wire_envelope, const std::vector<uint32_t>* participating_in,
    std::vector<uint32_t>* contributors) const {
  const uint8_t* body = payload;
  size_t body_len = payload_len;
  if (wire_envelope) {
    const size_t bitmap_bytes = full_bitmap_.size();
    if (payload_len != bitmap_bytes + psr_bytes_) {
      return Status::InvalidArgument("wire payload has wrong width");
    }
    body = payload + bitmap_bytes;
    body_len = psr_bytes_;
    if (!WireBitmapIsFull(payload)) {
      return EvaluateWirePartial(payload, epoch, contributors);
    }
    if (contributors != nullptr) {
      contributors->assign(all_sources_.begin(), all_sources_.end());
    }
    participating_in = &all_sources_;
  }
  const std::vector<uint32_t>& participating = *participating_in;

  const QuerierMetrics& metrics = QuerierMetrics::Get();
  metrics.evaluations->Increment();
  telemetry::ScopedSpan span("evaluate-decrypt", "querier", epoch);
  return params_.WithField([&](const auto& fp) -> StatusOr<Evaluation> {
    auto ciphertext = ParsePsr(fp, body, body_len);
    if (!ciphertext.ok()) return ciphertext.status();
    for (uint32_t index : participating) {
      if (index >= keys_.source_keys.size()) {
        return Status::NotFound("participating index out of range");
      }
    }
    auto global = cache_->Global(fp, keys_.global_key, epoch);
    auto per_source = cache_->Sources(fp, params_.share_prf,
                                      keys_.source_keys, epoch, pool_);

    // Σ k_{i,t} mod p and the plain integer Σ ss_{i,t} over the
    // participants. Validate keeps the share field plus its ceil(log2 N)
    // pad below p, so the share sum cannot carry out of L limbs.
    using Uint = typename std::decay_t<decltype(fp)>::Uint;
    Uint key_sum;
    Uint share_sum;
    for (uint32_t index : participating) {
      key_sum = fp.Add(key_sum, per_source->keys[index]);
      Uint::Add(share_sum, per_source->shares[index], &share_sum);
    }

    auto unpacked = UnpackMessage(
        params_, Decrypt(fp, ciphertext.value(), global->key_inv, key_sum));
    if (!unpacked.ok()) {
      // A value-field overflow in a genuine run is a configuration error,
      // but an adversarial PSR can also produce it; report as unverified.
      metrics.unverified->Increment();
      return Evaluation{0, false};
    }
    Evaluation eval;
    eval.sum = unpacked.value().sum;
    eval.verified = Uint::ConstantTimeEqual(unpacked.value().share_sum,
                                            share_sum);
    if (!eval.verified) metrics.unverified->Increment();
    return eval;
  });
}

StatusOr<Evaluation> Querier::Evaluate(const Bytes& final_psr,
                                       uint64_t epoch) const {
  return EvaluateCore(final_psr.data(), final_psr.size(), epoch,
                      /*wire_envelope=*/false, &all_sources_, nullptr);
}

StatusOr<Evaluation> Querier::EvaluateSlice(
    const uint8_t* psr, size_t len, uint64_t epoch,
    const std::vector<uint32_t>& participating) const {
  return EvaluateCore(psr, len, epoch, /*wire_envelope=*/false,
                      &participating, nullptr);
}

void Querier::WarmEpoch(uint64_t epoch) const {
  WarmEpoch(epoch, /*use_pool=*/true);
}

void Querier::WarmEpoch(uint64_t epoch, bool use_pool) const {
  params_.WithField([&](const auto& fp) {
    cache_->Global(fp, keys_.global_key, epoch);
    cache_->Sources(fp, params_.share_prf, keys_.source_keys, epoch,
                    use_pool ? pool_ : nullptr);
  });
}

bool Querier::WireBitmapIsFull(const uint8_t* bitmap) const {
  // Coverage is full iff every VALID bit is set: (b & full) == full per
  // byte, which also ignores padding bits (full_bitmap_ masks them, and
  // ContributorBitmap::Parse does the same on the slow path). The test
  // accumulates word-wise — for the common small widths it is a couple
  // of loads, which keeps the full-coverage wire path within the <2%
  // fig6a budget at small N where even one libc call would show up.
  const uint8_t* full = full_bitmap_.data();
  const size_t size = full_bitmap_.size();
  uint64_t missing = 0;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t b, f;
    std::memcpy(&b, bitmap + i, 8);
    std::memcpy(&f, full + i, 8);
    missing |= ~b & f;
  }
  for (; i < size; ++i) {
    missing |= static_cast<uint64_t>(~bitmap[i] & full[i]);
  }
  return missing == 0;
}

StatusOr<Evaluation> Querier::EvaluateWire(
    const Bytes& final_payload, uint64_t epoch,
    std::vector<uint32_t>* contributors) const {
  return EvaluateCore(final_payload.data(), final_payload.size(), epoch,
                      /*wire_envelope=*/true, nullptr, contributors);
}

StatusOr<Evaluation> Querier::EvaluateWirePartial(
    const uint8_t* payload, uint64_t epoch,
    std::vector<uint32_t>* contributors) const {
  const size_t bitmap_bytes = full_bitmap_.size();
  auto bitmap =
      ContributorBitmap::Parse(params_.num_sources, payload, bitmap_bytes);
  if (!bitmap.ok()) return bitmap.status();
  std::vector<uint32_t> local;
  std::vector<uint32_t>& set = contributors != nullptr ? *contributors : local;
  set = bitmap.value().Indices();
  return EvaluateCore(payload + bitmap_bytes, psr_bytes_, epoch,
                      /*wire_envelope=*/false, &set, nullptr);
}

StatusOr<WireEvaluation> Querier::EvaluateWire(const Bytes& final_payload,
                                               uint64_t epoch) const {
  WireEvaluation out;
  auto eval = EvaluateWire(final_payload, epoch, &out.contributors);
  if (!eval.ok()) return eval.status();
  out.sum = eval.value().sum;
  out.verified = eval.value().verified;
  return out;
}

}  // namespace sies::core
