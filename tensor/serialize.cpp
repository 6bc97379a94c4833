#include "tensor/serialize.h"

#include <atomic>
#include <cstring>
#include <istream>
#include <ostream>
#include <type_traits>

namespace qavat {

namespace {

// Envelope limits: a load must never allocate unbounded memory on a
// garbage size field read from a damaged file.
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 30;
constexpr std::uint64_t kMaxEntries = 1ull << 20;
constexpr std::uint64_t kMaxNameLen = 1ull << 12;
constexpr std::uint32_t kMaxNdim = 16;

constexpr char kDictMagic[4] = {'Q', 'V', 'S', 'D'};

// Process-wide envelope read counters (serialize_read_stats()). Relaxed:
// they are monotonic telemetry, never synchronization.
std::atomic<long long>& verified_counter() {
  static std::atomic<long long> n{0};
  return n;
}
std::atomic<long long>& failed_counter() {
  static std::atomic<long long> n{0};
  return n;
}

// -- payload writer: append native-endian PODs to a byte buffer ----------

template <typename T>
void put(std::string& buf, const T& v) {
  static_assert(std::is_trivially_copyable<T>::value, "POD only");
  buf.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

void put_string(std::string& buf, const std::string& s) {
  put<std::uint64_t>(buf, s.size());
  buf.append(s);
}

void put_tensor(std::string& buf, const Tensor& t) {
  put<std::uint32_t>(buf, static_cast<std::uint32_t>(t.ndim()));
  for (index_t d : t.shape()) put<std::int64_t>(buf, d);
  buf.append(reinterpret_cast<const char*>(t.data()),
             static_cast<std::size_t>(t.size()) * sizeof(float));
}

// -- payload reader: bounds-checked cursor over the loaded buffer --------

struct Cursor {
  const char* p;
  const char* end;

  bool get_raw(void* out, std::size_t n) {
    if (static_cast<std::size_t>(end - p) < n) return false;
    std::memcpy(out, p, n);
    p += n;
    return true;
  }
  template <typename T>
  bool get(T* out) {
    return get_raw(out, sizeof(T));
  }
  bool get_string(std::string* out) {
    std::uint64_t n = 0;
    if (!get(&n) || n > kMaxNameLen) return false;
    if (static_cast<std::uint64_t>(end - p) < n) return false;
    out->assign(p, static_cast<std::size_t>(n));
    p += n;
    return true;
  }
  bool get_tensor(Tensor* out) {
    std::uint32_t ndim = 0;
    if (!get(&ndim) || ndim > kMaxNdim) return false;
    if (ndim == 0) {
      // A default-constructed (empty) tensor: Tensor({}) would be a
      // one-element scalar, not the size-0 state that was saved.
      *out = Tensor{};
      return true;
    }
    std::vector<index_t> shape(ndim);
    std::uint64_t n = 1;
    for (std::uint32_t i = 0; i < ndim; ++i) {
      std::int64_t d = 0;
      if (!get(&d) || d < 0) return false;
      shape[i] = d;
      n *= static_cast<std::uint64_t>(d);
      if (n * sizeof(float) > kMaxPayloadBytes) return false;
    }
    Tensor t(std::move(shape));
    if (!get_raw(t.data(), static_cast<std::size_t>(t.size()) * sizeof(float))) {
      return false;
    }
    *out = std::move(t);
    return true;
  }
};

// Envelope: magic, version, payload size, payload bytes, FNV-1a of the
// payload.
void write_envelope(std::ostream& os, const std::string& payload) {
  os.write(kDictMagic, 4);
  const std::uint32_t version = kSerializeVersion;
  os.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const std::uint64_t size = payload.size();
  os.write(reinterpret_cast<const char*>(&size), sizeof(size));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  const std::uint64_t hash = fnv1a64(payload);
  os.write(reinterpret_cast<const char*>(&hash), sizeof(hash));
}

bool read_envelope_impl(std::istream& is, std::string* payload) {
  char m[4];
  std::uint32_t version = 0;
  std::uint64_t size = 0;
  if (!is.read(m, 4) || std::memcmp(m, kDictMagic, 4) != 0) return false;
  if (!is.read(reinterpret_cast<char*>(&version), sizeof(version)) ||
      version != kSerializeVersion) {
    return false;
  }
  if (!is.read(reinterpret_cast<char*>(&size), sizeof(size)) ||
      size > kMaxPayloadBytes) {
    return false;
  }
  payload->resize(static_cast<std::size_t>(size));
  if (size > 0 &&
      !is.read(&(*payload)[0], static_cast<std::streamsize>(size))) {
    return false;
  }
  std::uint64_t hash = 0;
  if (!is.read(reinterpret_cast<char*>(&hash), sizeof(hash))) return false;
  return hash == fnv1a64(*payload);
}

// Counting wrapper: every envelope read lands in serialize_read_stats().
bool read_envelope(std::istream& is, std::string* payload) {
  const bool ok = read_envelope_impl(is, payload);
  (ok ? verified_counter() : failed_counter())
      .fetch_add(1, std::memory_order_relaxed);
  return ok;
}

}  // namespace

SerializeReadStats serialize_read_stats() {
  SerializeReadStats s;
  s.envelopes_verified = verified_counter().load(std::memory_order_relaxed);
  s.envelopes_failed = failed_counter().load(std::memory_order_relaxed);
  return s;
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

const Tensor* StateDict::find_tensor(const std::string& name) const {
  for (const auto& kv : tensors) {
    if (kv.first == name) return &kv.second;
  }
  return nullptr;
}

const double* StateDict::find_scalar(const std::string& name) const {
  for (const auto& kv : scalars) {
    if (kv.first == name) return &kv.second;
  }
  return nullptr;
}

void save_state_dict(std::ostream& os, const StateDict& sd) {
  std::string payload;
  put<std::uint64_t>(payload, sd.tensors.size());
  for (const auto& kv : sd.tensors) {
    put_string(payload, kv.first);
    put_tensor(payload, kv.second);
  }
  put<std::uint64_t>(payload, sd.scalars.size());
  for (const auto& kv : sd.scalars) {
    put_string(payload, kv.first);
    put<double>(payload, kv.second);
  }
  write_envelope(os, payload);
}

bool load_state_dict(std::istream& is, StateDict* out) {
  std::string payload;
  if (!read_envelope(is, &payload)) return false;
  Cursor c{payload.data(), payload.data() + payload.size()};
  StateDict sd;
  std::uint64_t n_tensors = 0;
  if (!c.get(&n_tensors) || n_tensors > kMaxEntries) return false;
  sd.tensors.reserve(static_cast<std::size_t>(n_tensors));
  for (std::uint64_t i = 0; i < n_tensors; ++i) {
    std::string name;
    Tensor t;
    if (!c.get_string(&name) || !c.get_tensor(&t)) return false;
    sd.tensors.emplace_back(std::move(name), std::move(t));
  }
  std::uint64_t n_scalars = 0;
  if (!c.get(&n_scalars) || n_scalars > kMaxEntries) return false;
  sd.scalars.reserve(static_cast<std::size_t>(n_scalars));
  for (std::uint64_t i = 0; i < n_scalars; ++i) {
    std::string name;
    double v = 0.0;
    if (!c.get_string(&name) || !c.get(&v)) return false;
    sd.scalars.emplace_back(std::move(name), v);
  }
  if (c.p != c.end) return false;
  *out = std::move(sd);
  return true;
}

}  // namespace qavat
