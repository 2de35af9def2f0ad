// One field list per stats struct, and every serialiser derived from it.
// A struct lists each field once, as its JSON key and its member:
//
//   static void Fields(auto&& f, auto&... s) {
//     f("blocks_read", s.blocks_read...);
//   }
//
// Visiting one instance writes its JSON, or writes or reads its wire bytes;
// visiting two side by side sums them. List order is JSON and wire order.
// A nested stats struct is a JSON object and inline on the wire; a list
// that calls a member's Fields puts those fields in its own object.
#ifndef QARM_STORAGE_STATS_FIELDS_H_
#define QARM_STORAGE_STATS_FIELDS_H_

#include <cmath>
#include <string>
#include <type_traits>

#include "common/cpu_dispatch.h"
#include "common/status.h"
#include "common/string_util.h"
#include "storage/byte_reader.h"
#include "storage/qbt_format.h"

namespace qarm {

template <class S>
concept StatsStruct = requires(S& s) { S::Fields([](auto&&...) {}, s); };

// Unsigned integers, doubles as %.6f, SimdIsa by name, bools, escaped
// strings, and vectors of stats structs.
template <class T>
std::string StatsJson(const T& value) {
  if constexpr (StatsStruct<T>) {
    std::string out;
    char separator = '{';
    T::Fields(
        [&](const char* name, const auto& field) {
          out += separator + StrFormat("\"%s\":", name) + StatsJson(field);
          separator = ',';
        },
        value);
    return out + '}';
  } else if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_same_v<T, double>) {
    return StrFormat("%.6f", value);
  } else if constexpr (std::is_same_v<T, SimdIsa>) {
    return StrFormat("\"%s\"", IsaName(value));
  } else if constexpr (std::is_same_v<T, std::string>) {
    return JsonEscape(value);
  } else if constexpr (std::is_unsigned_v<T>) {
    return std::to_string(value);
  } else {
    std::string out = "[";
    for (size_t i = 0; i < value.size(); ++i) {
      if (i > 0) out += ',';
      out += StatsJson(value[i]);
    }
    return out + ']';
  }
}

// The wire carries u64 integers, f64 doubles and SimdIsa as u32. A peer's
// stats end up in reports, so the reader rejects an isa that is not a
// SimdIsa value (0 or 2) and a non-finite double, with an IOError naming the
// field.
inline void AppendStatsWire(uint64_t v, std::string* out) {
  QbtAppendU64(out, v);
}
inline void AppendStatsWire(double v, std::string* out) {
  QbtAppendF64(out, v);
}
inline void AppendStatsWire(SimdIsa v, std::string* out) {
  QbtAppendU32(out, static_cast<uint32_t>(v));
}
template <StatsStruct S>
void AppendStatsWire(const S& stats, std::string* out) {
  S::Fields([out](const char*, const auto& f) { AppendStatsWire(f, out); },
            stats);
}

inline Status ReadStatsWire(ByteReader* reader, const char*, uint64_t* v) {
  return reader->ReadU64(v);
}
inline Status ReadStatsWire(ByteReader* reader, const char* name, double* v) {
  QARM_RETURN_NOT_OK(reader->ReadF64(v));
  if (std::isfinite(*v)) return Status::OK();
  return Status::IOError(StrFormat("stats field %s is %f", name, *v));
}
inline Status ReadStatsWire(ByteReader* reader, const char* name, SimdIsa* v) {
  uint32_t isa = 0;
  QARM_RETURN_NOT_OK(reader->ReadU32(&isa));
  if (isa != static_cast<uint32_t>(SimdIsa::kScalar) &&
      isa != static_cast<uint32_t>(SimdIsa::kAvx2)) {
    return Status::IOError(StrFormat("stats field %s is %u", name, isa));
  }
  *v = static_cast<SimdIsa>(isa);
  return Status::OK();
}
template <StatsStruct S>
Status ReadStatsWire(ByteReader* reader, const char*, S* stats) {
  Status status;
  S::Fields(
      [&](const char* name, auto& f) {
        if (status.ok()) status = ReadStatsWire(reader, name, &f);
      },
      *stats);
  return status;
}

// Field-wise sums, nested stats structs included, and differences.
template <StatsStruct S>
S& operator+=(S& a, const S& b) {
  S::Fields([](const char*, auto& x, const auto& y) { x += y; }, a, b);
  return a;
}

template <StatsStruct S>
S operator-(S a, const S& b) {
  S::Fields([](const char*, auto& x, const auto& y) { x -= y; }, a, b);
  return a;
}

}  // namespace qarm

#endif  // QARM_STORAGE_STATS_FIELDS_H_
