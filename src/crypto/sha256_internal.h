#ifndef PREVER_CRYPTO_SHA256_INTERNAL_H_
#define PREVER_CRYPTO_SHA256_INTERNAL_H_

// The SHA-256 block compressors behind crypto::Sha256, exposed so the
// differential test and the microbench can pit them against each other.
// Production code hashes through Sha256, which picks the compressor once per
// process; nothing here changes that choice.

#include <cstddef>
#include <cstdint>

namespace prever::crypto::sha256_internal {

/// Folds `blocks` consecutive 64-byte blocks starting at `data` into the
/// eight-word chaining `state` (FIPS 180-4 §6.2.2).
using CompressFn = void (*)(uint32_t* state, const uint8_t* data,
                            size_t blocks);

/// Plain C++ compressor: the only path on CPUs without the SHA extensions
/// and the reference the hardware path is tested against.
void CompressPortable(uint32_t* state, const uint8_t* data, size_t blocks);

#if defined(__x86_64__) || defined(__i386__)
/// Compressor on the x86 SHA extensions. Callable only when CpuHasShaNi().
void CompressShaNi(uint32_t* state, const uint8_t* data, size_t blocks);

/// Whether this CPU has the SHA extensions and SSE4.1.
bool CpuHasShaNi();
#endif

/// The compressor Sha256 uses on this CPU: CompressShaNi where available,
/// CompressPortable otherwise. Chosen on the first call.
CompressFn Dispatched();

}  // namespace prever::crypto::sha256_internal

#endif  // PREVER_CRYPTO_SHA256_INTERNAL_H_
