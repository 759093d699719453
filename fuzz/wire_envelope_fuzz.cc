// Harness: sies::core::ParsePsr + ParseWireEnvelope — the querier-side
// wire surface. A hostile aggregator controls every byte here, so the
// paper's security argument (tamper => verification failure, never a
// crash or false acceptance) must hold over arbitrary frames.
//
// Input layout: [0] control byte, [1..] wire bytes.
//   control & 0x07          expected channel-plan width (0..7)
//   control & 0x08          params instance: N=16 (exact bitmap) or
//                           N=12 (4 padding bits in the bitmap tail)
//
// Oracles:
//   * parse-ok => body is exactly channels x PsrBytes and the envelope
//     reserializes bit-identically (N=16) / to a parse fixpoint (N=12,
//     where padding bits are masked by contract);
//   * the same frame parsed against a DIFFERENT plan width must fail;
//   * a well-formed single PSR never verifies against the committed
//     keys (forgery acceptance probability ~2^-224), and a wire
//     envelope never verifies with a non-empty contributor set;
//   * every failure is a Status, never an abort.
#include <vector>

#include "fuzz/fuzz_harness.h"
#include "sies/message_format.h"
#include "sies/querier.h"

namespace {

using sies::Bytes;
using namespace sies::core;

struct Fixture {
  Params params16 = MakeParams(16, 1).value();
  Params params12 = MakeParams(12, 1).value();
  Querier querier{params16, GenerateKeys(params16, {7})};
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void CheckEnvelope(const Params& params, const Bytes& wire, size_t channels,
                   bool exact_bitmap) {
  auto parsed = ParseWireEnvelope(params, wire, channels);
  // Wrong-plan parses must fail regardless of the frame's own shape.
  auto wrong_plan = ParseWireEnvelope(params, wire, channels + 1);
  if (!parsed.ok()) {
    SIES_FUZZ_ASSERT(!parsed.status().message().empty(),
                     "parse failure carries no message");
    return;
  }
  SIES_FUZZ_ASSERT(!wrong_plan.ok(),
                   "frame accepted under two different channel plans");
  const WirePayload& payload = parsed.value();
  SIES_FUZZ_ASSERT(payload.body.size() == channels * params.PsrBytes(),
                   "parsed body width disagrees with the channel plan");
  SIES_FUZZ_ASSERT(payload.bitmap.num_sources() == params.num_sources,
                   "parsed bitmap has the wrong source count");
  auto rewire = SerializeWirePayload(params, payload.bitmap, payload.body);
  SIES_FUZZ_ASSERT(rewire.ok(), "parsed envelope refuses to reserialize");
  if (exact_bitmap) {
    SIES_FUZZ_ASSERT(rewire.value() == wire,
                     "reserialized envelope is not bit-identical");
  } else {
    // Padding bits are masked on parse, so require a fixpoint instead:
    // parse(serialize(parse(x))) == parse(x).
    auto again = ParseWireEnvelope(params, rewire.value(), channels);
    SIES_FUZZ_ASSERT(again.ok(), "reserialized envelope refuses to parse");
    SIES_FUZZ_ASSERT(again.value().bitmap == payload.bitmap &&
                         again.value().body == payload.body,
                     "envelope parse is not a fixpoint");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  Fixture& fixture = GetFixture();
  const uint8_t control = data[0];
  const size_t channels = control & 0x07u;
  const bool use_padded = (control & 0x08u) != 0;
  const Params& params = use_padded ? fixture.params12 : fixture.params16;
  const Bytes wire(data + 1, data + size);

  CheckEnvelope(params, wire, channels, /*exact_bitmap=*/!use_padded);

  // Single-PSR surface + the false-acceptance oracle.
  if (wire.size() == fixture.params16.PsrBytes()) {
    const bool parsed = fixture.params16.WithField([&](const auto& fp) {
      auto psr = ParsePsr(fp, wire.data(), wire.size());
      if (!psr.ok()) return false;
      Bytes bytes(wire.size());
      SerializePsr(fp, psr.value(), bytes.data());
      SIES_FUZZ_ASSERT(bytes == wire,
                       "PSR does not reserialize bit-identically");
      return true;
    });
    if (parsed) {
      auto eval = fixture.querier.Evaluate(wire, /*epoch=*/1);
      SIES_FUZZ_ASSERT(!eval.ok() || !eval.value().verified,
                       "querier verified a fuzzed PSR");
    }
  }
  // Full wire evaluation: a fuzzed envelope may legitimately verify only
  // as the vacuous sum over an empty contributor set (all-zero bitmap,
  // zero ciphertext); any non-empty acceptance is a forgery.
  if (!use_padded &&
      wire.size() == WireEnvelopeBytes(fixture.params16, 1)) {
    auto eval = fixture.querier.EvaluateWire(wire, /*epoch=*/1);
    if (eval.ok() && eval.value().verified) {
      SIES_FUZZ_ASSERT(eval.value().contributors.empty() &&
                           eval.value().sum == 0,
                       "querier verified a fuzzed envelope with a non-empty "
                       "contributor set");
    }
  }
  return 0;
}
