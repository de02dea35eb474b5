// Deterministic random source for the simulator.
//
// One Rng per stochastic component, each seeded from the experiment seed and
// a component tag, so adding a component does not perturb the streams of the
// others.
#pragma once

#include <cstdint>
#include <string_view>

namespace gpucomm {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed != 0 ? seed : 0x9e3779b97f4a7c15ull) {}

  /// Derive an independent stream for a named component.
  Rng fork(std::string_view tag) const;

  std::uint64_t next_u64();

  /// Skip the next n outputs in O(1): the stream continues exactly as after
  /// n calls to next_u64(), because splitmix64's state is a counter.
  void discard(std::uint64_t n);

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  std::uint64_t uniform_int(std::uint64_t n);

  /// Exponential with the given mean.
  double exponential(double mean);

  /// Lognormal: exp(N(mu, sigma^2)).
  double lognormal(double mu, double sigma);

  /// Standard normal via Box-Muller (no cached spare; keeps state minimal).
  double normal(double mean, double stddev);

  /// Bounded Pareto on [lo, hi] with shape alpha (heavy-tailed delays).
  double bounded_pareto(double lo, double hi, double alpha);

  bool bernoulli(double p) { return uniform() < p; }

  /// Fisher-Yates shuffle of [0, n) indices written into out.
  template <typename Vec>
  void shuffle(Vec& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_int(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t state_;
};

}  // namespace gpucomm
