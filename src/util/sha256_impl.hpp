// SHA-256 compression functions behind util::Sha256 (internal header).
//
// Sha256 picks one of these once per process: the SHA-NI function when the
// CPU has the SHA extensions and SSE4.1, else the portable rounds.  Both
// are declared here so tests can run each one directly.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hbp::util::detail {

// Folds `n_blocks` consecutive 64-byte blocks into the eight-word state.
using Sha256Compress = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                                std::size_t n_blocks);

void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* blocks,
                              std::size_t n_blocks);

#if defined(__x86_64__) || defined(__i386__)
#define HBP_SHA256_HAVE_SHANI 1
// Requires shani_supported(); built for the sha and sse4.1 targets only.
void sha256_compress_shani(std::uint32_t* state, const std::uint8_t* blocks,
                           std::size_t n_blocks);
#endif

// True when this CPU can run sha256_compress_shani.
bool shani_supported();

}  // namespace hbp::util::detail
