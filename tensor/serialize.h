// Versioned binary serialization for model state. A
// StateDict is an ordered bag of named tensors and named scalars — the
// persistence unit the artifact store (eval/store.h) writes to disk so
// trained models survive the process. The format carries a magic tag, a
// schema version, an explicit payload size and a trailing FNV-1a
// checksum: truncated, corrupted or future-versioned files fail load()
// cleanly (return false) instead of crashing or yielding garbage, and
// callers fall back to recomputation. Byte layout is native-endian
// (artifacts are a cache, not an interchange format).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace qavat {

/// Format version written into every serialized artifact; bump on any
/// layout change so stale files are rejected rather than misread.
inline constexpr std::uint32_t kSerializeVersion = 1;

/// FNV-1a 64-bit hash of a byte string — the envelope checksum, also
/// reused by the artifact store for stable key-to-filename mapping.
std::uint64_t fnv1a64(const std::string& bytes);

/// Snapshot of the process-wide envelope read counters: every envelope
/// read verifies the trailing checksum, and these counters make that
/// observable — `verified` counts envelopes that passed the full header
/// + checksum validation, `failed` counts rejected ones (bad magic,
/// future version, oversize, truncation, or checksum mismatch). The
/// artifact store surfaces them in the `[qavat-store]` session summary
/// so silent corruption shows up in bench logs.
struct SerializeReadStats {
  long long envelopes_verified = 0;  ///< envelopes read and checksum-OK
  long long envelopes_failed = 0;    ///< envelopes rejected on read
};

/// Current values of the process-wide envelope read counters (relaxed
/// atomics; cheap to call).
SerializeReadStats serialize_read_stats();

/// Ordered collection of named tensors and named scalars — the
/// serializable snapshot of a model (parameters, quantizer scales,
/// metadata). Order is preserved on round-trip; names are unique by
/// convention (lookup returns the first match).
struct StateDict {
  std::vector<std::pair<std::string, Tensor>> tensors;  ///< name -> tensor
  std::vector<std::pair<std::string, double>> scalars;  ///< name -> scalar

  /// Append a (copied) tensor entry.
  void add_tensor(std::string name, const Tensor& t) {
    tensors.emplace_back(std::move(name), t);
  }
  /// Append a scalar entry.
  void add_scalar(std::string name, double v) {
    scalars.emplace_back(std::move(name), v);
  }
  /// First tensor with this name, or nullptr.
  const Tensor* find_tensor(const std::string& name) const;
  /// First scalar with this name, or nullptr.
  const double* find_scalar(const std::string& name) const;
};

/// Write a state dict (magic "QVSD" + version + payload + checksum).
void save_state_dict(std::ostream& os, const StateDict& sd);

/// Read a state dict written by save_state_dict. Returns false — leaving
/// *out untouched — on any malformed, truncated or version-mismatched
/// input (including a checksum mismatch anywhere in the payload).
bool load_state_dict(std::istream& is, StateDict* out);

}  // namespace qavat
