// Runtime CPU feature detection for the accelerated crypto kernels.
//
// One kernel dispatches on this module: the 8-lane AVX2 SHA-256
// multi-buffer kernel (crypto/sha256x8.*). It is bit-identical to its
// portable fallback — dispatch only ever changes speed, never output —
// so the choice is made once per process from CPUID and the SIES_NATIVE
// environment override (policy: docs/PERFORMANCE.md). The BMI2/ADX bits
// are detected for the benchmark host records only.
//
//   SIES_NATIVE unset / "auto" / "1"   use every feature CPUID reports
//   SIES_NATIVE "0" / "off" / "scalar" force the portable fallbacks
//
// The override exists so the scalar fallback can be exercised on AVX2
// hardware (differential tests, debugging) and so a deployment can pin
// the portable path without rebuilding.
#ifndef SIES_CRYPTO_CPU_FEATURES_H_
#define SIES_CRYPTO_CPU_FEATURES_H_

namespace sies::crypto {

/// Features the accelerated kernels care about, post-override: a field
/// is true only when the CPU supports it AND SIES_NATIVE allows it.
struct CpuFeatures {
  bool avx2 = false;  ///< 8-lane SHA-256 multi-buffer kernel
  bool bmi2 = false;  ///< MULX (flag-free widening multiply); host record
  bool adx = false;   ///< ADCX/ADOX (dual carry chains); host record
};

/// Detected once on first call (thread-safe); identical for the whole
/// process lifetime. Reads the SIES_NATIVE environment variable at that
/// first call only.
const CpuFeatures& Cpu();

/// Raw CPUID detection, ignoring SIES_NATIVE. Only for test hooks that
/// force a specific kernel (differential tests run scalar vs AVX2 side
/// by side even when the override pins production dispatch to scalar).
const CpuFeatures& CpuDetected();

}  // namespace sies::crypto

#endif  // SIES_CRYPTO_CPU_FEATURES_H_
