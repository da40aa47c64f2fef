// Deterministic pseudo-random number generation.
//
// Every stochastic component in telcochurn (simulator, classifiers,
// samplers) takes an explicit 64-bit seed so experiments are exactly
// reproducible. Rng wraps xoshiro256++ seeded via SplitMix64 and provides
// the distributions the library needs, avoiding the unspecified (and
// platform-varying) behaviour of <random> distributions.

#ifndef TELCO_COMMON_RNG_H_
#define TELCO_COMMON_RNG_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

namespace telco {

/// \brief SplitMix64 step; used to expand seeds and as a cheap stateless hash.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// \brief Mixes two 64-bit values into one; used to derive substream seeds.
inline uint64_t HashCombine64(uint64_t a, uint64_t b) {
  uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  return SplitMix64(s);
}

/// \brief Deterministic RNG (xoshiro256++) with common distributions.
class Rng {
 public:
  /// Seeds the generator; equal seeds produce equal streams on all platforms.
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL) { Seed(seed); }

  /// Re-seeds the generator.
  void Seed(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& w : s_) w = SplitMix64(sm);
    cached_gaussian_valid_ = false;
  }

  /// Derives an independent generator for a named substream.
  Rng Fork(uint64_t stream_id) {
    return Rng(HashCombine64(Next64(), stream_id));
  }

  /// Next raw 64 random bits.
  uint64_t Next64() {
    const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double Uniform() { return static_cast<double>(Next64() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [0, n). Precondition: n > 0.
  uint64_t UniformInt(uint64_t n) {
    // Lemire's nearly-divisionless bounded generation.
    __uint128_t m = static_cast<__uint128_t>(Next64()) * n;
    auto lo = static_cast<uint64_t>(m);
    if (lo < n) {
      const uint64_t threshold = (0ULL - n) % n;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(Next64()) * n;
        lo = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(
                    UniformInt(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// True with probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Standard normal via Box–Muller with caching.
  double Gaussian() {
    if (cached_gaussian_valid_) {
      cached_gaussian_valid_ = false;
      return cached_gaussian_;
    }
    double u1 = Uniform();
    while (u1 <= 1e-300) u1 = Uniform();
    const double u2 = Uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    cached_gaussian_ = r * std::sin(theta);
    cached_gaussian_valid_ = true;
    return r * std::cos(theta);
  }

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    return mean + stddev * Gaussian();
  }

  /// Exponential with the given rate (lambda). Precondition: rate > 0.
  double Exponential(double rate) {
    double u = Uniform();
    while (u <= 1e-300) u = Uniform();
    return -std::log(u) / rate;
  }

  /// Poisson-distributed count with the given mean.
  /// Uses Knuth's method for small means and a normal approximation above 64.
  int Poisson(double mean) {
    if (mean <= 0.0) return 0;
    if (mean > 64.0) {
      const double v = std::round(Gaussian(mean, std::sqrt(mean)));
      return v < 0.0 ? 0 : static_cast<int>(v);
    }
    const double limit = std::exp(-mean);
    double prod = Uniform();
    int n = 0;
    while (prod > limit) {
      prod *= Uniform();
      ++n;
    }
    return n;
  }

  /// Gamma(shape, scale) via Marsaglia–Tsang. Precondition: shape > 0.
  double Gamma(double shape, double scale) {
    if (shape < 1.0) {
      // Boost to shape+1 then apply the standard correction factor.
      const double u = Uniform();
      return Gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    while (true) {
      double x = Gaussian();
      double v = 1.0 + c * x;
      if (v <= 0.0) continue;
      v = v * v * v;
      const double u = Uniform();
      if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
      if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
        return d * v * scale;
      }
    }
  }

  /// Beta(a, b) via two Gammas.
  double Beta(double a, double b) {
    const double x = Gamma(a, 1.0);
    const double y = Gamma(b, 1.0);
    return x / (x + y);
  }

  /// Log-normal: exp of Normal(mu, sigma) in log space.
  double LogNormal(double mu, double sigma) {
    return std::exp(Gaussian(mu, sigma));
  }

  /// Samples an index in [0, weights.size()) proportional to weights.
  /// Zero-weight entries are never chosen; all-zero weights yield index 0.
  size_t Categorical(const std::vector<double>& weights) {
    double total = 0.0;
    for (double w : weights) total += w;
    if (total <= 0.0) return 0;
    double target = Uniform() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
      target -= weights[i];
      if (target < 0.0) return i;
    }
    return weights.size() - 1;
  }

  /// Samples a probability vector from a symmetric Dirichlet(alpha).
  std::vector<double> Dirichlet(size_t k, double alpha) {
    std::vector<double> out(k);
    double total = 0.0;
    for (auto& v : out) {
      v = Gamma(alpha, 1.0);
      total += v;
    }
    if (total <= 0.0) {
      for (auto& v : out) v = 1.0 / static_cast<double>(k);
      return out;
    }
    for (auto& v : out) v /= total;
    return out;
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      const size_t j = UniformInt(static_cast<uint64_t>(i));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (reservoir sampling); if k >= n
  /// returns all of [0, n) in order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k) {
    std::vector<size_t> out;
    SampleWithoutReplacement(n, k, &out);
    return out;
  }

  /// The same sample (same draws) written into `out`, reusing its
  /// capacity.
  void SampleWithoutReplacement(size_t n, size_t k,
                                std::vector<size_t>* out) {
    const size_t m = std::min(n, k);
    out->resize(m);
    for (size_t i = 0; i < m; ++i) (*out)[i] = i;
    for (size_t i = k; i < n; ++i) {
      const size_t j = UniformInt(static_cast<uint64_t>(i) + 1);
      if (j < k) (*out)[j] = i;
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool cached_gaussian_valid_ = false;
};

}  // namespace telco

#endif  // TELCO_COMMON_RNG_H_
