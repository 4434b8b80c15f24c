#include "fec/rse.h"

#include "common/ensure.h"
#include "fec/gf256.h"
#include "fec/gf256_simd.h"
#include "fec/matrix.h"

namespace rekey::fec {

RseCoder::RseCoder(int k) : k_(k) {
  REKEY_ENSURE_MSG(k >= 1 && k <= kMaxBlockSize, "block size out of range");
}

std::uint8_t RseCoder::coeff(int parity_index, int data_index) const {
  // Cauchy element 1 / (x_r + y_c) with x_r = k + parity_index,
  // y_c = data_index; the two index sets are disjoint so x_r != y_c.
  const std::uint8_t x = static_cast<std::uint8_t>(k_ + parity_index);
  const std::uint8_t y = static_cast<std::uint8_t>(data_index);
  return GF256::inv(GF256::add(x, y));
}

Bytes RseCoder::encode_one(std::span<const Bytes> data,
                           int parity_index) const {
  REKEY_ENSURE(static_cast<int>(data.size()) == k_);
  Bytes out(data[0].size());
  encode_one_into(data, parity_index, out);
  return out;
}

void RseCoder::encode_one_into(std::span<const Bytes> data, int parity_index,
                               std::span<std::uint8_t> out) const {
  REKEY_ENSURE(static_cast<int>(data.size()) == k_);
  REKEY_ENSURE_MSG(parity_index >= 0 && parity_index < max_parity(),
                   "parity index exhausted for this block size");
  const std::size_t len = data[0].size();
  REKEY_ENSURE_MSG(out.size() == len, "parity buffer size mismatch");
  for (int c = 0; c < k_; ++c)
    REKEY_ENSURE_MSG(data[c].size() == len, "unequal packet sizes in block");
  // Whole-buffer region kernels: one mul pass seeds the parity, then one
  // addmul pass per remaining data packet.
  mul_region(out.data(), data[0].data(), len, coeff(parity_index, 0));
  for (int c = 1; c < k_; ++c)
    addmul_region(out.data(), data[c].data(), len, coeff(parity_index, c));
}

std::optional<std::vector<Bytes>> RseCoder::decode(
    std::span<const Shard> shards) const {
  // Pick k distinct shards, preferring data shards (identity rows are free).
  std::vector<const Shard*> chosen;
  std::vector<bool> have_data(static_cast<std::size_t>(k_), false);
  std::vector<bool> seen_index(256, false);

  for (const Shard& s : shards) {
    REKEY_ENSURE(s.index >= 0 && s.index < k_ + max_parity());
    if (s.index < k_ && !seen_index[static_cast<std::size_t>(s.index)]) {
      seen_index[static_cast<std::size_t>(s.index)] = true;
      have_data[static_cast<std::size_t>(s.index)] = true;
      chosen.push_back(&s);
    }
  }
  for (const Shard& s : shards) {
    if (static_cast<int>(chosen.size()) >= k_) break;
    if (s.index >= k_ && !seen_index[static_cast<std::size_t>(s.index)]) {
      seen_index[static_cast<std::size_t>(s.index)] = true;
      chosen.push_back(&s);
    }
  }
  if (static_cast<int>(chosen.size()) < k_) return std::nullopt;

  // Mixed-length shards cannot come from one block's equal-length regions;
  // on network input (a truncated datagram stored as a shard) this is a
  // decode failure to report, not a programming error to abort on.
  const std::size_t len = chosen[0]->payload.size();
  for (const Shard* s : chosen)
    if (s->payload.size() != len) return std::nullopt;

  // A data shard that arrived is its own row of the result; only the m
  // missing rows are solved for. The m chosen parities give an m x m
  // system once the known rows move to the right-hand side (addition is
  // XOR); its matrix is a square Cauchy submatrix, so it is invertible,
  // and its unique solution is what a full k x k inversion would give.
  std::vector<Bytes> result(static_cast<std::size_t>(k_));
  std::vector<std::size_t> missing;
  for (const Shard* s : chosen)
    if (s->index < k_) result[static_cast<std::size_t>(s->index)] = s->payload;
  for (std::size_t j = 0; j < result.size(); ++j)
    if (!have_data[j]) missing.push_back(j);
  if (missing.empty()) return result;

  const std::size_t m = missing.size();
  const std::span<const Shard* const> parities(chosen.end() - m, chosen.end());
  Matrix a(m, m);
  std::vector<Bytes> rhs(m);
  for (std::size_t i = 0; i < m; ++i) {
    const int p = parities[i]->index - k_;
    for (std::size_t c = 0; c < m; ++c)
      a.at(i, c) = coeff(p, static_cast<int>(missing[c]));
    rhs[i] = parities[i]->payload;
    for (std::size_t j = 0; j < result.size(); ++j)
      if (have_data[j])
        addmul_region(rhs[i].data(), result[j].data(), len,
                      coeff(p, static_cast<int>(j)));
  }
  const auto inv = a.inverted();
  REKEY_ENSURE_MSG(inv.has_value(), "MDS violated: decode matrix singular");

  // data[missing[r]] = sum_i inv[r][i] * rhs[i]
  for (std::size_t r = 0; r < m; ++r) {
    Bytes row(len);
    mul_region(row.data(), rhs[0].data(), len, inv->at(r, 0));
    for (std::size_t i = 1; i < m; ++i)
      addmul_region(row.data(), rhs[i].data(), len, inv->at(r, i));
    result[missing[r]] = std::move(row);
  }
  return result;
}

}  // namespace rekey::fec
