#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace mmr {

namespace {
// Samples of at most this size test membership by a linear scan.
constexpr std::uint32_t kFloydLinearMax = 32;
}  // namespace

double Rng::exponential(double rate) {
  MMR_CHECK_MSG(rate > 0, "exponential() requires rate > 0, got " << rate);
  // 1 - uniform() is in (0, 1], so the log argument is never zero.
  return -std::log(1.0 - uniform()) / rate;
}

std::size_t Rng::discrete(const std::vector<double>& weights) {
  MMR_CHECK(!weights.empty());
  double total = 0;
  for (double w : weights) {
    MMR_CHECK_MSG(w >= 0, "discrete() weights must be nonnegative");
    total += w;
  }
  MMR_CHECK_MSG(total > 0, "discrete() needs at least one positive weight");
  double r = uniform(0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (r < weights[i]) return i;
    r -= weights[i];
  }
  // Floating-point slack: return the last positive-weight index.
  for (std::size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > 0) return i - 1;
  }
  return weights.size() - 1;
}

std::vector<std::uint32_t> Rng::sample_without_replacement(std::uint32_t n,
                                                           std::uint32_t k) {
  std::vector<std::uint32_t> result;
  sample_into(n, k, &result);
  return result;
}

void Rng::sample_into(std::uint32_t n, std::uint32_t k,
                      std::vector<std::uint32_t>* out) {
  MMR_CHECK_MSG(k <= n, "cannot sample " << k << " distinct from " << n);
  // Floyd's algorithm: for j = n-k .. n-1 draw t in [0, j]; keep t unless
  // already taken, in which case take j (never taken before this step).
  out->clear();
  out->reserve(k);
  // Membership test: scanning the sample costs about k^2/2 compares, a
  // bitmap a clear of n/64 words; at the sampled n the scan wins up to
  // kFloydLinearMax (timings in docs/PERFORMANCE.md).
  if (k <= kFloydLinearMax) {
    for (std::uint32_t j = n - k; j < n; ++j) {
      const auto t = static_cast<std::uint32_t>(
          bounded(static_cast<std::uint64_t>(j) + 1));
      const bool taken = std::find(out->begin(), out->end(), t) != out->end();
      out->push_back(taken ? j : t);
    }
    return;
  }
  std::vector<std::uint64_t> taken((static_cast<std::size_t>(n) + 63) / 64);
  for (std::uint32_t j = n - k; j < n; ++j) {
    auto v = static_cast<std::uint32_t>(
        bounded(static_cast<std::uint64_t>(j) + 1));
    if ((taken[v >> 6] >> (v & 63)) & 1) v = j;
    taken[v >> 6] |= std::uint64_t{1} << (v & 63);
    out->push_back(v);
  }
}

AliasTable::AliasTable(const std::vector<double>& weights) {
  MMR_CHECK(!weights.empty());
  const std::size_t n = weights.size();
  double total = 0;
  for (double w : weights) {
    MMR_CHECK_MSG(w >= 0, "AliasTable weights must be nonnegative");
    total += w;
  }
  MMR_CHECK_MSG(total > 0, "AliasTable needs a positive total weight");

  normalized_.resize(n);
  for (std::size_t i = 0; i < n; ++i) normalized_[i] = weights[i] / total;

  // Vose's alias method.
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i)
    scaled[i] = normalized_[i] * static_cast<double>(n);

  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (std::uint32_t i : large) prob_[i] = 1.0;
  for (std::uint32_t i : small) prob_[i] = 1.0;  // numeric residue
}

std::size_t AliasTable::sample(Rng& rng) const {
  MMR_DCHECK(!prob_.empty());
  const std::size_t bucket = rng.bounded(prob_.size());
  return rng.uniform() < prob_[bucket] ? bucket : alias_[bucket];
}

double AliasTable::probability_of(std::size_t i) const {
  MMR_CHECK(i < normalized_.size());
  return normalized_[i];
}

}  // namespace mmr
