#include "exec/vectorized.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <variant>

#include "exec/operators.h"

namespace tcq {

namespace {

uint64_t LoadBigEndian64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// Lexicographic byte comparison with memcmp semantics (sign of the
/// result), inlined and chunked 8 bytes at a time. The hot merge/sort
/// loops call this with a run-time width, which libc memcmp turns into an
/// out-of-line call per comparison; comparing big-endian 64-bit chunks
/// resolves almost every comparison on the first chunk (the leading key
/// column) at a fraction of the cost.
[[gnu::always_inline]] inline int CompareKeys(const uint8_t* a,
                                              const uint8_t* b, size_t w) {
  size_t off = 0;
  if (w >= 8) [[likely]] {
    // The first chunk, outside the loop: it settles most comparisons.
    uint64_t x = LoadBigEndian64(a);
    uint64_t y = LoadBigEndian64(b);
    if (x != y) return x < y ? -1 : 1;
    off = 8;
  }
  for (; off + 8 <= w; off += 8) {
    uint64_t x = LoadBigEndian64(a + off);
    uint64_t y = LoadBigEndian64(b + off);
    if (x != y) return x < y ? -1 : 1;
  }
  for (; off < w; ++off) {
    if (a[off] != b[off]) return a[off] < b[off] ? -1 : 1;
  }
  return 0;
}

/// The merge loop shared by the columnar intersect and join kernels, over
/// two sorted runs' encoded keys (stride `w`): steps past unequal keys and
/// hands each equal-key group, left [i, i_end) × right [j, j_end), to
/// `on_group`. Returns the comparison count: one per cross probe and one
/// per group-extension probe, the row kernels' `++comparisons` placements.
template <typename OnGroup>
int64_t MergeEncodedRuns(const uint8_t* left_keys, size_t left_n,
                         const uint8_t* right_keys, size_t right_n, size_t w,
                         OnGroup&& on_group) {
  size_t i = 0, j = 0;
  int64_t comps = 0;
  while (i < left_n && j < right_n) {
    ++comps;
    int c = CompareKeys(left_keys + i * w, right_keys + j * w, w);
    if (c != 0) [[likely]] {
      // Branchless advance: which side moves is data-dependent and
      // unpredictable, so a conditional increment (cmov) beats a taken/
      // not-taken branch. Exactly one of the two increments is nonzero —
      // the iteration sequence matches the branchy row merge.
      i += static_cast<size_t>(c < 0);
      j += static_cast<size_t>(c > 0);
      continue;
    }
    size_t i_end = i + 1;
    while (i_end < left_n) {
      ++comps;
      if (CompareKeys(left_keys + i_end * w, left_keys + i * w, w) != 0) {
        break;
      }
      ++i_end;
    }
    size_t j_end = j + 1;
    while (j_end < right_n) {
      ++comps;
      if (CompareKeys(right_keys + j_end * w, right_keys + j * w, w) != 0) {
        break;
      }
      ++j_end;
    }
    on_group(i, i_end, j, j_end);
    i = i_end;
    j = j_end;
  }
  return comps;
}

/// Appends a 64-bit pattern big-endian, so memcmp order equals unsigned
/// integer order.
void PutBigEndian(uint64_t u, std::vector<uint8_t>* out) {
  for (int i = 7; i >= 0; --i) {
    out->push_back(static_cast<uint8_t>(u >> (8 * i)));
  }
}

void EncodeValue(const Value& v, const Column& column,
                 std::vector<uint8_t>* out) {
  if (column.type == DataType::kString) {
    const std::string& s = std::get<std::string>(v);
    out->insert(out->end(), s.begin(), s.end());
    out->insert(out->end(), static_cast<size_t>(column.width) - s.size(), 0);
    return;
  }
  // A number's encoding is its key prefix (operators.h), whole.
  PutBigEndian(KeyPrefix(v), out);
}

}  // namespace

int EncodedKeyWidth(const Schema& schema, const std::vector<int>& key) {
  if (key.empty()) return schema.TupleBytes();
  int width = 0;
  for (int k : key) width += schema.column(k).ByteWidth();
  return width;
}

void EncodeKeyColumns(TupleRefSpan run, const Schema& schema,
                      const std::vector<int>& key,
                      std::vector<uint8_t>* out) {
  out->reserve(out->size() +
               run.size() * static_cast<size_t>(EncodedKeyWidth(schema, key)));
  if (key.empty()) {
    for (const Tuple* t : run) {
      for (int c = 0; c < schema.num_columns(); ++c) {
        EncodeValue((*t)[static_cast<size_t>(c)], schema.column(c), out);
      }
    }
  } else {
    for (const Tuple* t : run) {
      for (int k : key) {
        EncodeValue((*t)[static_cast<size_t>(k)], schema.column(k), out);
      }
    }
  }
}

bool ColumnarJoinKeysCompatible(const Schema& left_schema,
                                const std::vector<int>& left_key,
                                const Schema& right_schema,
                                const std::vector<int>& right_key) {
  if (left_key.size() != right_key.size()) return false;
  for (size_t k = 0; k < left_key.size(); ++k) {
    const Column& l = left_schema.column(left_key[k]);
    const Column& r = right_schema.column(right_key[k]);
    if (l.type != r.type || l.ByteWidth() != r.ByteWidth()) return false;
  }
  return true;
}

void SortRunRangeColumnar(TupleRefs* run, const Schema& schema,
                          const std::vector<int>& key,
                          std::vector<uint8_t>* keys, int64_t* comparisons) {
  const size_t n = run->size();
  const size_t width = static_cast<size_t>(EncodedKeyWidth(schema, key));
  keys->clear();
  EncodeKeyColumns(*run, schema, key, keys);
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  const uint8_t* base = keys->data();
  // Same introsort over the same comparator outcomes as SortRunRange's
  // reference sort, so the comparison count and the permutation are
  // identical.
  int64_t comps = 0;
  std::sort(perm.begin(), perm.end(),
            [&comps, base, width](uint32_t a, uint32_t b) {
              ++comps;
              return CompareKeys(base + a * width, base + b * width, width) <
                     0;
            });
  *comparisons += comps;
  TupleRefs sorted_refs(n);
  std::vector<uint8_t> sorted_keys(n * width);
  for (size_t i = 0; i < n; ++i) {
    sorted_refs[i] = (*run)[perm[i]];
    std::memcpy(sorted_keys.data() + i * width, base + perm[i] * width,
                width);
  }
  *run = std::move(sorted_refs);
  *keys = std::move(sorted_keys);
}

int64_t MergeIntersectRangeColumnar(TupleRefSpan left,
                                    const uint8_t* left_keys,
                                    TupleRefSpan right,
                                    const uint8_t* right_keys, int key_width,
                                    TupleRefs* out, int64_t* comparisons) {
  int64_t emitted = 0;
  *comparisons += MergeEncodedRuns(
      left_keys, left.size(), right_keys, right.size(),
      static_cast<size_t>(key_width),
      [&](size_t i, size_t i_end, size_t j, size_t j_end) {
        // One output point per (left, right) pair.
        emitted += static_cast<int64_t>((i_end - i) * (j_end - j));
        if (out != nullptr) {
          for (size_t a = i; a < i_end; ++a) {
            out->insert(out->end(), j_end - j, left[a]);
          }
        }
      });
  return emitted;
}

int64_t MergeJoinRangeColumnar(TupleRefSpan left, const uint8_t* left_keys,
                               TupleRefSpan right, const uint8_t* right_keys,
                               int key_width, std::vector<Tuple>* out,
                               int64_t* comparisons) {
  int64_t emitted = 0;
  *comparisons += MergeEncodedRuns(
      left_keys, left.size(), right_keys, right.size(),
      static_cast<size_t>(key_width),
      [&](size_t i, size_t i_end, size_t j, size_t j_end) {
        emitted += static_cast<int64_t>((i_end - i) * (j_end - j));
        if (out != nullptr) AppendJoined(left, i, i_end, right, j, j_end, out);
      });
  return emitted;
}

}  // namespace tcq
