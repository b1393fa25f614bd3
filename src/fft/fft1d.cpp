#include "fft/fft1d.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/error.h"

namespace hacc::fft {

namespace {

/// Largest prime radix a stage handles; longer prime factors go to
/// Bluestein.
constexpr std::size_t kMaxRadix = 31;

std::size_t smallest_factor(std::size_t n) {
  for (std::size_t f = 2; f * f <= n; ++f) {
    if (n % f == 0) return f;
  }
  return n;
}

bool is_smooth(std::size_t n) {
  while (n > 1) {
    const std::size_t f = smallest_factor(n);
    if (f > kMaxRadix) return false;
    n /= f;
  }
  return true;
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// One Stockham autosort pass of radix r and span l (the product of the
/// radices before it), with m = n / (r l). Viewing the input as
/// in[i + m (p + r j)] and the output as out[i + m (j + l q)] for i < m,
/// j < l and p, q < r, the pass computes
///   out[i + m (j + l q)] = sum_p W_r^{pq} W_{rl}^{pj} in[i + m (p + r j)],
/// i.e. it merges r interleaved length-l sub-spectra into one of length rl.
/// After the last pass (l r = n, m = 1) the spectrum is in natural order.
struct Stage {
  std::size_t radix = 0;
  std::size_t span = 0;
  std::size_t m = 0;
  /// W_{rl}^{pj} at [j (r-1) + p - 1] for j < l, p = 1..r-1 (empty when
  /// l = 1: every twiddle is 1).
  std::vector<Complex> twiddle;
  /// W_r^k for k < r (odd radices only).
  std::vector<Complex> roots;
};

/// Complex values viewed as interleaved (re, im) doubles, the layout the
/// standard guarantees for arrays of std::complex<double>.
double* as_doubles(Complex* z) { return reinterpret_cast<double*>(z); }
const double* as_doubles(const Complex* z) {
  return reinterpret_cast<const double*>(z);
}

/// a *= w, with w conjugated for the inverse transform.
template <bool kInverse>
inline void twiddle_mul(double& re, double& im, const Complex& w) {
  const double wr = w.real();
  const double wi = kInverse ? -w.imag() : w.imag();
  const double r = re * wr - im * wi;
  im = re * wi + im * wr;
  re = r;
}

// Every pass reads all r inputs of a butterfly before it writes any of its
// r outputs, so a pass with l = 1 (whose input and output index sets per
// butterfly coincide) may run with in == out.

template <bool kInverse>
void radix2(const Stage& s, const double* in, double* out) {
  const std::size_t l = s.span, m = s.m;
  const std::size_t os = 2 * m * l;  // output stride between q values
  for (std::size_t j = 0; j < l; ++j) {
    const double* a = in + 2 * m * (2 * j);
    double* x = out + 2 * m * j;
    for (std::size_t i = 0; i < m; ++i) {
      const double a0r = a[2 * i], a0i = a[2 * i + 1];
      double a1r = a[2 * (m + i)], a1i = a[2 * (m + i) + 1];
      if (l > 1) twiddle_mul<kInverse>(a1r, a1i, s.twiddle[j]);
      x[2 * i] = a0r + a1r;
      x[2 * i + 1] = a0i + a1i;
      x[os + 2 * i] = a0r - a1r;
      x[os + 2 * i + 1] = a0i - a1i;
    }
  }
}

template <bool kInverse>
void radix4(const Stage& s, const double* in, double* out) {
  const std::size_t l = s.span, m = s.m;
  const std::size_t os = 2 * m * l;
  for (std::size_t j = 0; j < l; ++j) {
    const double* a = in + 2 * m * (4 * j);
    double* x = out + 2 * m * j;
    for (std::size_t i = 0; i < m; ++i) {
      double a0r = a[2 * i], a0i = a[2 * i + 1];
      double a1r = a[2 * (m + i)], a1i = a[2 * (m + i) + 1];
      double a2r = a[2 * (2 * m + i)], a2i = a[2 * (2 * m + i) + 1];
      double a3r = a[2 * (3 * m + i)], a3i = a[2 * (3 * m + i) + 1];
      if (l > 1) {
        const Complex* w = s.twiddle.data() + 3 * j;
        twiddle_mul<kInverse>(a1r, a1i, w[0]);
        twiddle_mul<kInverse>(a2r, a2i, w[1]);
        twiddle_mul<kInverse>(a3r, a3i, w[2]);
      }
      const double t0r = a0r + a2r, t0i = a0i + a2i;
      const double t1r = a0r - a2r, t1i = a0i - a2i;
      const double t2r = a1r + a3r, t2i = a1i + a3i;
      // t3 = (a1 - a3) times -i (forward) or +i (inverse): a swap of
      // components and a sign flip, no multiply.
      const double dr = a1r - a3r, di = a1i - a3i;
      const double t3r = kInverse ? -di : di;
      const double t3i = kInverse ? dr : -dr;
      x[2 * i] = t0r + t2r;
      x[2 * i + 1] = t0i + t2i;
      x[os + 2 * i] = t1r + t3r;
      x[os + 2 * i + 1] = t1i + t3i;
      x[2 * os + 2 * i] = t0r - t2r;
      x[2 * os + 2 * i + 1] = t0i - t2i;
      x[3 * os + 2 * i] = t1r - t3r;
      x[3 * os + 2 * i + 1] = t1i - t3i;
    }
  }
}

/// Odd prime radix r <= 31. Pairs inputs p and r - p, so output pairs
/// q, r - q share their real-coefficient sums:
///   X_q, X_{r-q} = a_0 + sum_p Re(W^{pq}) (a_p + a_{r-p})
///                  +- i sum_p Im(W^{pq}) (a_p - a_{r-p}).
template <bool kInverse>
void radix_odd(const Stage& s, const double* in, double* out) {
  const std::size_t r = s.radix, l = s.span, m = s.m, h = (r - 1) / 2;
  const std::size_t os = 2 * m * l;
  double ar[kMaxRadix] = {}, ai[kMaxRadix] = {};
  double sr[kMaxRadix / 2 + 1] = {}, si[kMaxRadix / 2 + 1] = {};
  double dr[kMaxRadix / 2 + 1] = {}, di[kMaxRadix / 2 + 1] = {};
  for (std::size_t j = 0; j < l; ++j) {
    const double* a = in + 2 * m * (r * j);
    double* x = out + 2 * m * j;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t p = 0; p < r; ++p) {
        ar[p] = a[2 * (p * m + i)];
        ai[p] = a[2 * (p * m + i) + 1];
      }
      if (l > 1) {
        const Complex* w = s.twiddle.data() + (r - 1) * j;
        for (std::size_t p = 1; p < r; ++p)
          twiddle_mul<kInverse>(ar[p], ai[p], w[p - 1]);
      }
      double x0r = ar[0], x0i = ai[0];
      for (std::size_t p = 1; p <= h; ++p) {
        sr[p] = ar[p] + ar[r - p];
        si[p] = ai[p] + ai[r - p];
        dr[p] = ar[p] - ar[r - p];
        di[p] = ai[p] - ai[r - p];
        x0r += sr[p];
        x0i += si[p];
      }
      x[2 * i] = x0r;
      x[2 * i + 1] = x0i;
      for (std::size_t q = 1; q <= h; ++q) {
        double cr = ar[0], ci = ai[0], br = 0.0, bi = 0.0;
        std::size_t k = 0;  // p q mod r
        for (std::size_t p = 1; p <= h; ++p) {
          k += q;
          if (k >= r) k -= r;
          const double c = s.roots[k].real();
          const double sn = kInverse ? -s.roots[k].imag() : s.roots[k].imag();
          cr += c * sr[p];
          ci += c * si[p];
          br += sn * dr[p];
          bi += sn * di[p];
        }
        x[q * os + 2 * i] = cr - bi;
        x[q * os + 2 * i + 1] = ci + br;
        x[(r - q) * os + 2 * i] = cr + bi;
        x[(r - q) * os + 2 * i + 1] = ci - br;
      }
    }
  }
}

/// The calling thread's scratch line, at least n long: plans are shared
/// across OpenMP threads (the threaded batch and the pencil's line loops).
Complex* scratch_line(std::size_t n) {
  thread_local std::vector<Complex> scratch;
  if (scratch.size() < n) scratch.resize(n);
  return scratch.data();
}

template <bool kInverse>
void run_stage(const Stage& s, const Complex* in, Complex* out) {
  switch (s.radix) {
    case 2:
      radix2<kInverse>(s, as_doubles(in), as_doubles(out));
      break;
    case 4:
      radix4<kInverse>(s, as_doubles(in), as_doubles(out));
      break;
    default:
      radix_odd<kInverse>(s, as_doubles(in), as_doubles(out));
      break;
  }
}

}  // namespace

struct Fft1D::Impl {
  std::size_t n = 0;
  // Twiddle table: w[k] = exp(-2 pi i k / n), k in [0, n).
  std::vector<Complex> twiddle;
  // Stockham passes, applied in order (smooth n only).
  std::vector<Stage> stages;

  // Half-length complex plan for the two-for-one real transform (even n
  // only): an n-point r2c runs as one n/2-point c2c plus an O(n) untangle.
  std::unique_ptr<Fft1D> half;

  // Bluestein state (only when !smooth): convolution length m (power of 2),
  // chirp[j] = exp(-i pi j^2 / n), and the forward FFT of the padded
  // conjugate chirp.
  std::unique_ptr<Fft1D> conv_fft;
  std::vector<Complex> chirp;
  std::vector<Complex> chirp_fft;  // FFT of b_j = conj(chirp) wrapped

  void build_twiddles() {
    twiddle.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const double phase =
          -2.0 * std::numbers::pi * static_cast<double>(k) /
          static_cast<double>(n);
      twiddle[k] = Complex(std::cos(phase), std::sin(phase));
    }
  }

  /// Radix 4 while 4 divides what is left, then one radix 2 if a factor 2
  /// remains, then one pass per odd prime factor. Every stage twiddle is a
  /// master-table entry, so each is as accurate as the table.
  void build_stages() {
    std::vector<std::size_t> radices;
    std::size_t rest = n;
    while (rest % 4 == 0) {
      radices.push_back(4);
      rest /= 4;
    }
    if (rest % 2 == 0) {
      radices.push_back(2);
      rest /= 2;
    }
    while (rest > 1) {
      const std::size_t f = smallest_factor(rest);
      radices.push_back(f);
      rest /= f;
    }
    std::size_t span = 1;
    for (const std::size_t r : radices) {
      Stage s;
      s.radix = r;
      s.span = span;
      s.m = n / (r * span);
      // W_{rl}^{pj} = W_n^{p j m}; p j < r l, so the index stays below n.
      if (span > 1) {
        s.twiddle.reserve((r - 1) * span);
        for (std::size_t j = 0; j < span; ++j)
          for (std::size_t p = 1; p < r; ++p)
            s.twiddle.push_back(twiddle[p * j * s.m]);
      }
      if (r % 2 == 1) {
        for (std::size_t k = 0; k < r; ++k)
          s.roots.push_back(twiddle[k * (n / r)]);
      }
      stages.push_back(std::move(s));
      span *= r;
    }
  }

  /// Runs the passes alternately between `data` and the thread's scratch
  /// line, so that the last lands in `data`: with an odd pass count the
  /// first pass (span 1) runs in place.
  template <bool kInverse>
  void transform_smooth(Complex* data) const {
    Complex* from = data;
    Complex* to = scratch_line(n);
    std::size_t s = 0;
    if (stages.size() % 2 == 1) run_stage<kInverse>(stages[s++], data, data);
    for (; s < stages.size(); ++s) {
      run_stage<kInverse>(stages[s], from, to);
      std::swap(from, to);
    }
  }

  void build_bluestein() {
    const std::size_t m = next_pow2(2 * n - 1);
    conv_fft = std::make_unique<Fft1D>(m);
    chirp.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      // Use j^2 mod 2n to keep the phase argument small and exact.
      const std::size_t j2 = (j * j) % (2 * n);
      const double phase = -std::numbers::pi * static_cast<double>(j2) /
                           static_cast<double>(n);
      chirp[j] = Complex(std::cos(phase), std::sin(phase));
    }
    // b_j = conj(chirp_|j|) wrapped into [0, m).
    std::vector<Complex> b(m, Complex(0, 0));
    b[0] = std::conj(chirp[0]);
    for (std::size_t j = 1; j < n; ++j) {
      b[j] = std::conj(chirp[j]);
      b[m - j] = std::conj(chirp[j]);
    }
    conv_fft->transform(b.data(), Direction::kForward);
    chirp_fft = std::move(b);
  }

  void transform_bluestein(Complex* data, Direction dir) const {
    const std::size_t m = conv_fft->size();
    thread_local std::vector<Complex> bluestein_work;
    bluestein_work.assign(m, Complex(0, 0));
    // Forward with chirp; inverse = conjugate trick.
    for (std::size_t j = 0; j < n; ++j) {
      const Complex x =
          dir == Direction::kForward ? data[j] : std::conj(data[j]);
      bluestein_work[j] = x * chirp[j];
    }
    conv_fft->transform(bluestein_work.data(), Direction::kForward);
    for (std::size_t j = 0; j < m; ++j) bluestein_work[j] *= chirp_fft[j];
    conv_fft->inverse_scaled(bluestein_work.data());
    for (std::size_t j = 0; j < n; ++j) {
      const Complex y = bluestein_work[j] * chirp[j];
      data[j] = dir == Direction::kForward ? y : std::conj(y);
    }
  }
};

Fft1D::Fft1D(std::size_t n) : n_(n), smooth_(is_smooth(n)) {
  HACC_CHECK_MSG(n >= 1, "FFT length must be positive");
  impl_ = std::make_unique<Impl>();
  impl_->n = n;
  impl_->build_twiddles();
  if (smooth_) {
    impl_->build_stages();
  } else {
    impl_->build_bluestein();
  }
  if (n % 2 == 0 && n >= 2) impl_->half = std::make_unique<Fft1D>(n / 2);
}

Fft1D::~Fft1D() = default;
Fft1D::Fft1D(Fft1D&&) noexcept = default;
Fft1D& Fft1D::operator=(Fft1D&&) noexcept = default;

void Fft1D::transform(Complex* data, Direction dir) const {
  if (n_ == 1) return;
  if (!smooth_) {
    impl_->transform_bluestein(data, dir);
  } else if (dir == Direction::kForward) {
    impl_->transform_smooth<false>(data);
  } else {
    impl_->transform_smooth<true>(data);
  }
}

void Fft1D::transform_batch(Complex* data, std::size_t count,
                            Direction dir) const {
  // Lines are independent; thread when there is enough work to amortize
  // the fork (part of the paper's "fully thread ... the long-range solver"
  // program, Sec. VI).
#pragma omp parallel for schedule(static) if (count >= 64 && n_ >= 32)
  for (std::size_t i = 0; i < count; ++i) transform(data + i * n_, dir);
}

void Fft1D::forward_r2c(const double* in, Complex* out) const {
  if (n_ == 1) {
    out[0] = Complex(in[0], 0.0);
    return;
  }
  if (impl_->half == nullptr) {
    // Odd length: full complex transform, keep the low half-spectrum.
    thread_local std::vector<Complex> full;
    full.resize(n_);
    for (std::size_t j = 0; j < n_; ++j) full[j] = Complex(in[j], 0.0);
    transform(full.data(), Direction::kForward);
    std::copy(full.begin(),
              full.begin() + static_cast<std::ptrdiff_t>(half_size()),
              out);
    return;
  }
  // Two-for-one: pack adjacent reals into one complex line of length h,
  // transform, then untangle the even/odd sub-spectra:
  //   X[k] = Ze[k] + W_n^k Zo[k],  k = 0..h  (indices into Z mod h), with
  //   Ze[k] = (Z[k] + conj(Z[h-k]))/2,  Zo[k] = (Z[k] - conj(Z[h-k]))/(2i),
  // in real arithmetic: Z[k] = a + ib, Z[h-k] = c + id.
  const std::size_t h = n_ / 2;
  thread_local std::vector<Complex> z;
  z.resize(h);
  for (std::size_t j = 0; j < h; ++j)
    z[j] = Complex(in[2 * j], in[2 * j + 1]);
  impl_->half->transform(z.data(), Direction::kForward);
  const Complex* w = impl_->twiddle.data();
  auto untangle = [&](std::size_t k, Complex zk, Complex zm) {
    const double a = zk.real(), b = zk.imag(), c = zm.real(), d = zm.imag();
    const double er = 0.5 * (a + c), ei = 0.5 * (b - d);
    const double odr = 0.5 * (b + d), odi = -0.5 * (a - c);
    const double wr = w[k].real(), wi = w[k].imag();
    out[k] = Complex(er + (wr * odr - wi * odi), ei + (wr * odi + wi * odr));
  };
  untangle(0, z[0], z[0]);  // k = 0 and k = h both pair Z[0] with itself
  for (std::size_t k = 1; k < h; ++k) untangle(k, z[k], z[h - k]);
  untangle(h, z[0], z[0]);
}

void Fft1D::inverse_c2r(const Complex* in, double* out) const {
  if (n_ == 1) {
    out[0] = in[0].real();
    return;
  }
  if (impl_->half == nullptr) {
    // Odd length: rebuild the Hermitian full spectrum and transform.
    thread_local std::vector<Complex> full;
    full.resize(n_);
    const std::size_t hs = half_size();
    for (std::size_t k = 0; k < hs; ++k) full[k] = in[k];
    for (std::size_t k = hs; k < n_; ++k) full[k] = std::conj(in[n_ - k]);
    inverse_scaled(full.data());
    for (std::size_t j = 0; j < n_; ++j) out[j] = full[j].real();
    return;
  }
  // Inverse of the two-for-one untangle:
  //   Z[k] = Ze[k] + i Zo[k], with
  //   Ze[k] = (X[k] + conj(X[h-k]))/2,
  //   Zo[k] = (X[k] - conj(X[h-k]))/2 * conj(W_n^k),
  // in real arithmetic (X[k] = a + ib, X[h-k] = c + id), then one scaled
  // inverse half-length transform; the packed line holds the even samples
  // in its real parts and the odd ones in its imaginaries.
  const std::size_t h = n_ / 2;
  thread_local std::vector<Complex> z;
  z.resize(h);
  const Complex* w = impl_->twiddle.data();
  for (std::size_t k = 0; k < h; ++k) {
    const double a = in[k].real(), b = in[k].imag();
    const double c = in[h - k].real(), d = in[h - k].imag();
    const double er = 0.5 * (a + c), ei = 0.5 * (b - d);
    const double dr = 0.5 * (a - c), di = 0.5 * (b + d);
    const double wr = w[k].real(), wi = w[k].imag();
    const double odr = dr * wr + di * wi, odi = di * wr - dr * wi;
    z[k] = Complex(er - odi, ei + odr);
  }
  impl_->half->inverse_scaled(z.data());
  for (std::size_t j = 0; j < h; ++j) {
    out[2 * j] = z[j].real();
    out[2 * j + 1] = z[j].imag();
  }
}

void Fft1D::inverse_scaled(Complex* data) const {
  transform(data, Direction::kInverse);
  const double inv = 1.0 / static_cast<double>(n_);
  for (std::size_t j = 0; j < n_; ++j) data[j] *= inv;
}

std::vector<Complex> dft_reference(const std::vector<Complex>& in,
                                   Direction dir) {
  const std::size_t n = in.size();
  const double sign = dir == Direction::kForward ? -1.0 : 1.0;
  std::vector<Complex> out(n, Complex(0, 0));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      const double phase = sign * 2.0 * std::numbers::pi *
                           static_cast<double>((j * k) % n) /
                           static_cast<double>(n);
      out[k] += in[j] * Complex(std::cos(phase), std::sin(phase));
    }
  }
  return out;
}

}  // namespace hacc::fft
