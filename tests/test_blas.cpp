// BLAS kernel tests: dots (local/distributed, mixed precision), WAXPBY in
// all precision combinations, multivector GEMVs, CGS2 building blocks.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <type_traits>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "blas/multivector.hpp"
#include "blas/vector_ops.hpp"
#include "comm/thread_comm.hpp"

namespace hpgmx {
namespace {

TEST(Dot, LocalMatchesClosedForm) {
  AlignedVector<double> x(100), y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x[i] = static_cast<double>(i);
    y[i] = 2.0;
  }
  EXPECT_DOUBLE_EQ(dot_local(std::span<const double>(x.data(), x.size()),
                             std::span<const double>(y.data(), y.size())),
                   2.0 * 99 * 100 / 2);
}

TEST(Dot, MixedPrecisionInputs) {
  AlignedVector<double> x(10, 3.0);
  AlignedVector<float> y(10, 0.5f);
  EXPECT_DOUBLE_EQ(dot_local(std::span<const double>(x.data(), x.size()),
                             std::span<const float>(y.data(), y.size())),
                   15.0);
}

class DistributedBlas : public ::testing::TestWithParam<int> {};

TEST_P(DistributedBlas, DotSumsAcrossRanks) {
  const int p = GetParam();
  ThreadCommWorld::execute(p, [&](Comm& comm) {
    AlignedVector<double> x(8, 1.0), y(8, static_cast<double>(comm.rank() + 1));
    const double d = dot<double>(comm, std::span<const double>(x.data(), 8),
                                 std::span<const double>(y.data(), 8));
    EXPECT_DOUBLE_EQ(d, 8.0 * p * (p + 1) / 2);
  });
}

TEST_P(DistributedBlas, Nrm2AcrossRanks) {
  const int p = GetParam();
  ThreadCommWorld::execute(p, [&](Comm& comm) {
    AlignedVector<double> x(4, 2.0);
    const double n = nrm2<double>(comm, std::span<const double>(x.data(), 4));
    EXPECT_NEAR(n, std::sqrt(16.0 * p), 1e-13);
  });
}

TEST_P(DistributedBlas, FloatAllreducePath) {
  const int p = GetParam();
  ThreadCommWorld::execute(p, [&](Comm& comm) {
    AlignedVector<float> x(4, 1.5f);
    const float d = dot<float>(comm, std::span<const float>(x.data(), 4),
                               std::span<const float>(x.data(), 4));
    EXPECT_FLOAT_EQ(d, 9.0f * p);
  });
}

INSTANTIATE_TEST_SUITE_P(Worlds, DistributedBlas, ::testing::Values(1, 2, 4));

TEST(Waxpby, AllPrecisionCombinations) {
  AlignedVector<double> xd{1.0, 2.0};
  AlignedVector<float> xf{1.0f, 2.0f};
  AlignedVector<double> yd{10.0, 20.0};
  AlignedVector<float> yf{10.0f, 20.0f};

  AlignedVector<double> wd(2);
  AlignedVector<float> wf(2);

  // double = a*double + b*double
  waxpby(2.0, std::span<const double>(xd.data(), 2), 0.5,
         std::span<const double>(yd.data(), 2), std::span<double>(wd.data(), 2));
  EXPECT_DOUBLE_EQ(wd[0], 7.0);
  EXPECT_DOUBLE_EQ(wd[1], 14.0);

  // double = a*float + b*double (the GMRES-IR update shape)
  waxpby(2.0, std::span<const float>(xf.data(), 2), 0.5,
         std::span<const double>(yd.data(), 2), std::span<double>(wd.data(), 2));
  EXPECT_DOUBLE_EQ(wd[0], 7.0);

  // float = a*double + b*float (downconversion)
  waxpby(2.0, std::span<const double>(xd.data(), 2), 0.5,
         std::span<const float>(yf.data(), 2), std::span<float>(wf.data(), 2));
  EXPECT_FLOAT_EQ(wf[0], 7.0f);
  EXPECT_FLOAT_EQ(wf[1], 14.0f);
}

TEST(Axpy, MixedPrecisionAccumulate) {
  AlignedVector<float> x{1.0f, 1.0f};
  AlignedVector<double> y{0.5, 1.5};
  axpy(3.0, std::span<const float>(x.data(), 2), std::span<double>(y.data(), 2));
  EXPECT_DOUBLE_EQ(y[0], 3.5);
  EXPECT_DOUBLE_EQ(y[1], 4.5);
}

TEST(Scal, ScalesInPlace) {
  AlignedVector<float> x{2.0f, -4.0f};
  scal(0.5, std::span<float>(x.data(), 2));
  EXPECT_FLOAT_EQ(x[0], 1.0f);
  EXPECT_FLOAT_EQ(x[1], -2.0f);
}

TEST(ConvertCopy, RoundTripsWithinPrecision) {
  AlignedVector<double> x{1.0, 1e-7, 3.14159265358979};
  AlignedVector<float> f(3);
  AlignedVector<double> back(3);
  convert_copy(std::span<const double>(x.data(), 3), std::span<float>(f.data(), 3));
  convert_copy(std::span<const float>(f.data(), 3), std::span<double>(back.data(), 3));
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(back[static_cast<std::size_t>(i)],
                x[static_cast<std::size_t>(i)],
                1e-7 * std::abs(x[static_cast<std::size_t>(i)]));
  }
}

TEST(SetAll, FillsEverything) {
  AlignedVector<double> x(17, 1.0);
  set_all(std::span<double>(x.data(), x.size()), -3.0);
  for (const double v : x) {
    EXPECT_DOUBLE_EQ(v, -3.0);
  }
}

TEST(MultiVector, ColumnsAreContiguousAndZeroInitialized) {
  MultiVector<double> q(5, 3);
  EXPECT_EQ(q.rows(), 5);
  EXPECT_EQ(q.cols(), 3);
  for (int j = 0; j < 3; ++j) {
    const auto col = q.column(j);
    EXPECT_EQ(col.size(), 5u);
    for (const double v : col) {
      EXPECT_DOUBLE_EQ(v, 0.0);
    }
  }
  EXPECT_EQ(q.column(1).data(), q.data() + 5);
}

TEST(GemvT, MatchesPerColumnDots) {
  const local_index_t n = 50;
  MultiVector<double> q(n, 4);
  AlignedVector<double> w(static_cast<std::size_t>(n));
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> dist(-1, 1);
  for (int j = 0; j < 4; ++j) {
    for (auto& v : q.column(j)) {
      v = dist(rng);
    }
  }
  for (auto& v : w) {
    v = dist(rng);
  }
  SelfComm comm;
  AlignedVector<double> h(4, 0.0);
  gemv_t(comm, q, 3, std::span<const double>(w.data(), w.size()),
         std::span<double>(h.data(), h.size()));
  for (int j = 0; j < 3; ++j) {
    const double expect =
        dot_local(std::span<const double>(q.column(j).data(), w.size()),
                  std::span<const double>(w.data(), w.size()));
    EXPECT_NEAR(h[static_cast<std::size_t>(j)], expect, 1e-12);
  }
}

TEST(GemvN, SubtractionOrthogonalizes) {
  // One CGS pass against an orthonormal basis leaves w ⟂ span(Q).
  const local_index_t n = 64;
  MultiVector<double> q(n, 2);
  // Orthonormal columns: indicator blocks scaled.
  for (local_index_t i = 0; i < n / 2; ++i) {
    q.column(0)[static_cast<std::size_t>(i)] = std::sqrt(2.0 / n);
  }
  for (local_index_t i = n / 2; i < n; ++i) {
    q.column(1)[static_cast<std::size_t>(i)] = std::sqrt(2.0 / n);
  }
  AlignedVector<double> w(static_cast<std::size_t>(n), 1.0);
  SelfComm comm;
  AlignedVector<double> h(2, 0.0);
  gemv_t(comm, q, 2, std::span<const double>(w.data(), w.size()),
         std::span<double>(h.data(), h.size()));
  gemv_n_sub(q, 2, std::span<const double>(h.data(), h.size()),
             std::span<double>(w.data(), w.size()));
  for (int j = 0; j < 2; ++j) {
    const double d =
        dot_local(std::span<const double>(q.column(j).data(), w.size()),
                  std::span<const double>(w.data(), w.size()));
    EXPECT_NEAR(d, 0.0, 1e-12);
  }
}

TEST(GemvN, ReconstructsLinearCombination) {
  const local_index_t n = 10;
  MultiVector<float> q(n, 3);
  for (int j = 0; j < 3; ++j) {
    for (local_index_t i = 0; i < n; ++i) {
      q.column(j)[static_cast<std::size_t>(i)] =
          static_cast<float>((j + 1) * (i + 1));
    }
  }
  AlignedVector<float> t{1.0f, -1.0f, 2.0f};
  AlignedVector<float> w(static_cast<std::size_t>(n), 0.0f);
  gemv_n(q, 3, std::span<const float>(t.data(), 3),
         std::span<float>(w.data(), w.size()));
  for (local_index_t i = 0; i < n; ++i) {
    const float expect = static_cast<float>((i + 1) * (1 - 2 + 6));
    EXPECT_FLOAT_EQ(w[static_cast<std::size_t>(i)], expect);
  }
}

TEST_P(DistributedBlas, GemvTBatchesOneAllreduce) {
  // The result must equal per-rank dot sums regardless of rank count.
  const int p = GetParam();
  const local_index_t n = 16;
  ThreadCommWorld::execute(p, [&](Comm& comm) {
    MultiVector<double> q(n, 2);
    AlignedVector<double> w(static_cast<std::size_t>(n));
    for (local_index_t i = 0; i < n; ++i) {
      q.column(0)[static_cast<std::size_t>(i)] = 1.0;
      q.column(1)[static_cast<std::size_t>(i)] = static_cast<double>(comm.rank());
      w[static_cast<std::size_t>(i)] = 2.0;
    }
    AlignedVector<double> h(2, 0.0);
    gemv_t(comm, q, 2, std::span<const double>(w.data(), w.size()),
           std::span<double>(h.data(), h.size()));
    EXPECT_DOUBLE_EQ(h[0], 2.0 * n * p);
    // Column 1 holds each rank's id: Σ_r 2n·r = 2n·p(p−1)/2.
    EXPECT_DOUBLE_EQ(h[1], 2.0 * n * p * (p - 1) / 2.0);
  });
}

INSTANTIATE_TEST_SUITE_P(GemvWorlds, DistributedBlas,
                         ::testing::Values(3, 8));

#ifdef _OPENMP
// Bit pattern of a float/double, so -0.0 vs 0.0 or a last-ulp change shows.
template <typename T>
auto bits(T v) {
  using U = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;
  return std::bit_cast<U>(v);
}

// dot_local and gemv_t add one partial per kReduceBlock rows in index
// order, so their results must not depend on the OpenMP thread count. This
// is the local half of the solvers' bit-identity contract; the rank-ordered
// allreduce is the other half.
template <typename T>
void expect_reductions_invariant_to_thread_count() {
  // Several full blocks plus a ragged tail.
  const std::size_t n = 4 * detail::kReduceBlock + 37;
  constexpr int k = 5;
  MultiVector<T> q(static_cast<local_index_t>(n), k);
  AlignedVector<T> w(n);
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> dist(-1, 1);
  for (int j = 0; j < k; ++j) {
    for (auto& v : q.column(j)) {
      v = static_cast<T>(dist(rng));
    }
  }
  for (auto& v : w) {
    v = static_cast<T>(dist(rng));
  }
  const std::span<const T> ws(w.data(), n);
  SelfComm comm;

  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  const T ref_dot = dot_local(std::as_const(q).column(0), ws);
  AlignedVector<T> ref_h(k, T(0));
  gemv_t(comm, q, k, ws, std::span<T>(ref_h.data(), ref_h.size()));
  // gemv_t's column j is the same ordered sum as dot_local(Q[:,j], w).
  EXPECT_EQ(bits(ref_h[0]), bits(ref_dot));

  for (int threads = 1; threads <= 4; ++threads) {
    omp_set_num_threads(threads);
    for (int rep = 0; rep < 8; ++rep) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " rep=" << rep);
      EXPECT_EQ(bits(dot_local(std::as_const(q).column(0), ws)),
                bits(ref_dot));
      AlignedVector<T> h(k, T(0));
      gemv_t(comm, q, k, ws, std::span<T>(h.data(), h.size()));
      for (std::size_t j = 0; j < static_cast<std::size_t>(k); ++j) {
        EXPECT_EQ(bits(h[j]), bits(ref_h[j])) << "column " << j;
      }
    }
  }
  omp_set_num_threads(saved_threads);
}

TEST(OrderedReductions, DotLocalAndGemvTAreBitIdenticalAcrossThreadCounts) {
  expect_reductions_invariant_to_thread_count<float>();
  expect_reductions_invariant_to_thread_count<double>();
}
#endif  // _OPENMP

}  // namespace
}  // namespace hpgmx
