#include "sies/source.h"

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace sies::core {

Status Source::CreatePsrInto(uint64_t value, uint64_t epoch,
                             uint8_t* out) const {
  static telemetry::Counter* psrs =
      telemetry::MetricsRegistry::Global().GetCounter(
          "sies_source_psr_total", {{"scheme", "SIES"}});
  psrs->Increment();
  telemetry::ScopedSpan span("psr-encrypt", "source", epoch);
  return params_.WithField([&](const auto& fp) -> Status {
    const auto epoch_global =
        cache_ != nullptr
            ? cache_->Global(fp, keys_.global_key, epoch)->key
            : DeriveEpochGlobalKey(fp, keys_.global_key, epoch);
    const auto epoch_key = DeriveEpochSourceKey(fp, keys_.source_key, epoch);
    auto message = PackMessage(
        params_, value,
        DeriveEpochShare(fp, params_.share_prf, keys_.source_key, epoch));
    if (!message.ok()) return message.status();
    auto ciphertext = Encrypt(fp, message.value(), epoch_global, epoch_key);
    if (!ciphertext.ok()) return ciphertext.status();
    SerializePsr(fp, ciphertext.value(), out);
    return Status::OK();
  });
}

StatusOr<Bytes> Source::CreatePsr(uint64_t value, uint64_t epoch) const {
  Bytes out(params_.PsrBytes());
  SIES_RETURN_IF_ERROR(CreatePsrInto(value, epoch, out.data()));
  return out;
}

StatusOr<Bytes> Source::CreateWirePsr(uint64_t value, uint64_t epoch) const {
  auto psr = CreatePsr(value, epoch);
  if (!psr.ok()) return psr.status();
  ContributorBitmap bitmap(params_.num_sources);
  Status set = bitmap.Set(index_);
  if (!set.ok()) return set;
  return SerializeWirePayload(params_, bitmap, psr.value());
}

}  // namespace sies::core
