#include "sies/message_format.h"

namespace sies::core {

size_t WireBitmapBytes(const Params& params) {
  return ContributorBitmap::WidthBytes(params.num_sources);
}

size_t WirePsrBytes(const Params& params) {
  return WireBitmapBytes(params) + params.PsrBytes();
}

StatusOr<Bytes> SerializeWirePayload(const Params& params,
                                     const ContributorBitmap& bitmap,
                                     const Bytes& body) {
  if (bitmap.num_sources() != params.num_sources) {
    return Status::InvalidArgument("contributor bitmap has wrong width");
  }
  Bytes wire;
  wire.reserve(bitmap.bytes().size() + body.size());
  wire.insert(wire.end(), bitmap.bytes().begin(), bitmap.bytes().end());
  wire.insert(wire.end(), body.begin(), body.end());
  return wire;
}

StatusOr<WirePayload> ParseWirePayload(const Params& params,
                                       const Bytes& wire,
                                       size_t expected_body_bytes) {
  const size_t bitmap_bytes = WireBitmapBytes(params);
  if (wire.size() != bitmap_bytes + expected_body_bytes) {
    return Status::InvalidArgument("wire payload has wrong width");
  }
  auto bitmap =
      ContributorBitmap::Parse(params.num_sources, wire.data(), bitmap_bytes);
  if (!bitmap.ok()) return bitmap.status();
  return WirePayload{std::move(bitmap).value(),
                     Bytes(wire.begin() + bitmap_bytes, wire.end())};
}

size_t WireEnvelopeBytes(const Params& params, size_t channels) {
  return WireBitmapBytes(params) + channels * params.PsrBytes();
}

StatusOr<WirePayload> ParseWireEnvelope(const Params& params,
                                        const Bytes& wire,
                                        size_t expected_channels) {
  const size_t bitmap_bytes = WireBitmapBytes(params);
  if (wire.size() < bitmap_bytes) {
    return Status::InvalidArgument(
        "wire envelope shorter than its contributor bitmap");
  }
  const size_t body_bytes = wire.size() - bitmap_bytes;
  const size_t psr_bytes = params.PsrBytes();
  if (psr_bytes == 0 || body_bytes % psr_bytes != 0) {
    return Status::InvalidArgument(
        "wire envelope body is not a whole number of PSRs");
  }
  if (body_bytes / psr_bytes != expected_channels) {
    return Status::InvalidArgument(
        "wire envelope PSR count does not match the channel plan");
  }
  auto bitmap =
      ContributorBitmap::Parse(params.num_sources, wire.data(), bitmap_bytes);
  if (!bitmap.ok()) return bitmap.status();
  return WirePayload{std::move(bitmap).value(),
                     Bytes(wire.begin() + bitmap_bytes, wire.end())};
}

}  // namespace sies::core
