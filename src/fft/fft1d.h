// One-dimensional complex FFT, implemented from scratch.
//
// HACC deliberately avoids vendor FFT libraries (paper Sec. I: "HACC's
// performance and flexibility are not dependent on vendor-supplied or other
// high-performance libraries"); its 3-D FFT is built on its own 1-D kernels.
// Smooth sizes (any product of primes <= 31 — covers every size in the
// paper: 1024, 4096, 5120=2^10*5, 6400, 8192, 9216=2^10*9, 10240) run an
// iterative Stockham autosort engine: radix-4 passes while 4 divides the
// remaining length, one radix-2 pass for a leftover factor 2, then one
// generic pass per odd prime factor, each pass reading a contiguous twiddle
// table cut from the master table and ping-ponging between the caller's
// line and one per-thread scratch line. Every other length goes through a
// Bluestein chirp-z transform whose power-of-two convolution runs on the
// same engine, so *every* length is supported, as required for the
// "non-power-of-two FFT" claim (paper Sec. IV-A).
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

namespace hacc::fft {

using Complex = std::complex<double>;

/// Transform direction. Forward uses exp(-i 2pi jk/n); Inverse is unscaled
/// exp(+i 2pi jk/n) — callers divide by n (or use `inverse_scaled`).
enum class Direction { kForward, kInverse };

/// A planned 1-D transform of fixed length n.
///
/// Plans precompute the pass list with its twiddle tables (and Bluestein
/// chirp state when needed) once. Plans are immutable after construction;
/// `transform` uses thread-local scratch and is safe to call concurrently on
/// one shared plan (transform_batch exploits this with an OpenMP loop).
class Fft1D {
 public:
  explicit Fft1D(std::size_t n);
  ~Fft1D();
  Fft1D(Fft1D&&) noexcept;
  Fft1D& operator=(Fft1D&&) noexcept;
  Fft1D(const Fft1D&) = delete;
  Fft1D& operator=(const Fft1D&) = delete;

  std::size_t size() const noexcept { return n_; }

  /// In-place transform of one contiguous line of n values.
  void transform(Complex* data, Direction dir) const;

  /// In-place transform of `count` contiguous lines (line i starts at
  /// data + i*n).
  void transform_batch(Complex* data, std::size_t count, Direction dir) const;

  /// Inverse transform including the 1/n normalization.
  void inverse_scaled(Complex* data) const;

  /// Number of independent complex modes of an n-point real transform:
  /// n/2 + 1 (the Hermitian half-spectrum along this axis).
  std::size_t half_size() const noexcept { return n_ / 2 + 1; }

  /// Real-to-complex forward transform: `in` holds n reals, `out` receives
  /// the half_size() low-frequency modes of the unscaled forward DFT (the
  /// remaining modes follow from X[n-k] = conj(X[k])). For even n this runs
  /// one complex transform of length n/2 (the classic two-for-one real
  /// trick), roughly halving the flops; odd lengths fall back to a full
  /// complex transform. `in` and `out` must not alias. Safe to call
  /// concurrently on one shared plan (thread-local scratch).
  void forward_r2c(const double* in, Complex* out) const;

  /// Complex-to-real inverse of forward_r2c, including the 1/n
  /// normalization: half_size() modes in, n reals out. The input is assumed
  /// Hermitian (imaginary parts of the k=0 and, for even n, k=n/2 modes are
  /// ignored). `in` and `out` must not alias.
  void inverse_c2r(const Complex* in, double* out) const;

  /// True if n factors entirely into primes <= 31 (Stockham passes only);
  /// false means the Bluestein path is used.
  bool smooth() const noexcept { return smooth_; }

 private:
  struct Impl;
  std::size_t n_;
  bool smooth_;
  std::unique_ptr<Impl> impl_;
};

/// O(n^2) reference DFT used by tests to validate the fast transforms.
std::vector<Complex> dft_reference(const std::vector<Complex>& in,
                                   Direction dir);

}  // namespace hacc::fft
