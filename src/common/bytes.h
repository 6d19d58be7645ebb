#ifndef SGNN_COMMON_BYTES_H_
#define SGNN_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace sgnn::common {

/// Little serialisation helpers over a growable byte buffer, shared by the
/// shard format, pipeline checkpoints and dist worker specs: append PODs
/// in host byte order, read them back through a bounds-checked `ByteCursor`
/// so a truncated payload is a framing error, never UB.

inline void PutBytes(std::string* buf, const void* data, size_t n) {
  buf->append(static_cast<const char*>(data), n);
}

template <typename T>
void PutPod(std::string* buf, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  PutBytes(buf, &v, sizeof(v));
}

/// u32 length, then the bytes.
inline void PutString(std::string* buf, const std::string& s) {
  PutPod<uint32_t>(buf, static_cast<uint32_t>(s.size()));
  PutBytes(buf, s.data(), s.size());
}

/// u64 element count, then the elements.
template <typename T>
void PutVec(std::string* buf, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  PutPod<uint64_t>(buf, v.size());
  PutBytes(buf, v.data(), v.size() * sizeof(T));
}

/// Forward reader over `left` bytes at `p`. Every getter reports underrun
/// through `ok` (sticky) and then returns a value-initialised result.
struct ByteCursor {
  const char* p;
  size_t left;
  bool ok = true;

  bool Take(void* out, size_t n) {
    if (!ok || n > left) {
      ok = false;
      return false;
    }
    if (n == 0) return true;  // `out` may be an empty vector's null data().
    std::memcpy(out, p, n);
    p += n;
    left -= n;
    return true;
  }

  template <typename T>
  T Pod() {
    T v{};
    Take(&v, sizeof(v));
    return v;
  }

  /// Reads a `PutString` record.
  std::string Str() {
    const uint32_t n = Pod<uint32_t>();
    if (!ok || n > left) {
      ok = false;
      return {};
    }
    std::string s(p, n);
    p += n;
    left -= n;
    return s;
  }

  /// Reads a `PutVec` record into `out`.
  template <typename T>
  void Vec(std::vector<T>* out) {
    const uint64_t n = Pod<uint64_t>();
    if (!ok || n > left / sizeof(T)) {
      ok = false;
      return;
    }
    out->resize(n);
    Take(out->data(), n * sizeof(T));
  }
};

}  // namespace sgnn::common

#endif  // SGNN_COMMON_BYTES_H_
