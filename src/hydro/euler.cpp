#include "hydro/euler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ricsa::hydro {

namespace {

constexpr double kFloor = 1e-12;

struct P5 {
  double rho, u, v, w, p;  // u = longitudinal velocity for the active sweep
};

struct U5 {
  double rho, mu, mv, mw, e;
};

U5 to_conserved(const P5& s, double gamma) {
  const double kin = 0.5 * s.rho * (s.u * s.u + s.v * s.v + s.w * s.w);
  return {s.rho, s.rho * s.u, s.rho * s.v, s.rho * s.w,
          s.p / (gamma - 1.0) + kin};
}

U5 flux_of(const P5& s, double gamma) {
  const U5 c = to_conserved(s, gamma);
  return {c.mu, c.mu * s.u + s.p, c.mv * s.u, c.mw * s.u,
          s.u * (c.e + s.p)};
}

U5 add(const U5& a, const U5& b, double fb) {
  return {a.rho + fb * b.rho, a.mu + fb * b.mu, a.mv + fb * b.mv,
          a.mw + fb * b.mw, a.e + fb * b.e};
}

/// HLLC approximate Riemann flux (Toro) with passive transverse momentum.
U5 hllc_flux(const P5& L, const P5& R, double gamma) {
  const double aL = std::sqrt(gamma * L.p / L.rho);
  const double aR = std::sqrt(gamma * R.p / R.rho);
  const double sL = std::min(L.u - aL, R.u - aR);
  const double sR = std::max(L.u + aL, R.u + aR);

  if (sL >= 0.0) return flux_of(L, gamma);
  if (sR <= 0.0) return flux_of(R, gamma);

  const double num = R.p - L.p + L.rho * L.u * (sL - L.u) -
                     R.rho * R.u * (sR - R.u);
  const double den = L.rho * (sL - L.u) - R.rho * (sR - R.u);
  const double sStar = den != 0.0 ? num / den : 0.0;

  const auto star_flux = [&](const P5& K, double sK) {
    const U5 uK = to_conserved(K, gamma);
    const double factor = K.rho * (sK - K.u) / (sK - sStar);
    U5 uStar;
    uStar.rho = factor;
    uStar.mu = factor * sStar;
    uStar.mv = factor * K.v;
    uStar.mw = factor * K.w;
    uStar.e = factor * (uK.e / K.rho +
                        (sStar - K.u) * (sStar + K.p / (K.rho * (sK - K.u))));
    const U5 fK = flux_of(K, gamma);
    return add(fK, add(uStar, uK, -1.0), sK);
  };

  return sStar >= 0.0 ? star_flux(L, sL) : star_flux(R, sR);
}

double minmod(double a, double b) {
  if (a * b <= 0.0) return 0.0;
  return std::abs(a) < std::abs(b) ? a : b;
}

}  // namespace

EulerSolver3D::EulerSolver3D(int nx, int ny, int nz, EulerConfig config)
    : nx_(nx), ny_(ny), nz_(nz), config_(config) {
  if (nx <= 0 || ny <= 0 || nz <= 0) {
    throw std::invalid_argument("EulerSolver3D: dimensions must be positive");
  }
  Conserved ambient;
  ambient.rho = 1.0;
  ambient.e = 1.0 / (config.gamma - 1.0);
  cells_.assign(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
                    static_cast<std::size_t>(nz),
                ambient);
}

Primitive3 EulerSolver3D::primitive(int i, int j, int k) const {
  const Conserved& c = cells_[index(i, j, k)];
  const double rho = std::max(c.rho, kFloor);
  const double u = c.mx / rho, v = c.my / rho, w = c.mz / rho;
  const double kin = 0.5 * rho * (u * u + v * v + w * w);
  const double p = std::max((config_.gamma - 1.0) * (c.e - kin), kFloor);
  return {rho, u, v, w, p};
}

void EulerSolver3D::set_primitive(int i, int j, int k, const Primitive3& s) {
  Conserved& c = cells_[index(i, j, k)];
  c.rho = s.rho;
  c.mx = s.rho * s.u;
  c.my = s.rho * s.v;
  c.mz = s.rho * s.w;
  const double kin = 0.5 * s.rho * (s.u * s.u + s.v * s.v + s.w * s.w);
  c.e = s.p / (config_.gamma - 1.0) + kin;
}

double EulerSolver3D::compute_dt() const {
  // Per-slab maxima, combined afterwards: max is exact in any order, so the
  // split cannot change dt.
  std::vector<double> slab_max(static_cast<std::size_t>(nz_));
  util::parallel_for(
      pool_, 0, slab_max.size(), [&](std::size_t k0, std::size_t k1) {
        for (std::size_t k = k0; k < k1; ++k) {
          double max_speed = 1e-12;
          for (int j = 0; j < ny_; ++j) {
            for (int i = 0; i < nx_; ++i) {
              const Primitive3 s = primitive(i, j, static_cast<int>(k));
              const double a = std::sqrt(config_.gamma * s.p / s.rho);
              const double vel =
                  std::max({std::abs(s.u), std::abs(s.v), std::abs(s.w)});
              max_speed = std::max(max_speed, vel + a);
            }
          }
          slab_max[k] = max_speed;
        }
      });
  double max_speed = 1e-12;
  for (const double m : slab_max) max_speed = std::max(max_speed, m);
  return config_.cfl * config_.dx / max_speed;
}

void EulerSolver3D::sweep_pencil(Conserved* line, int n, int axis, double dt,
                                 Boundary lo, Boundary hi) {
  if (n < 2) return;
  const double gamma = config_.gamma;
  const int N = n + 4;  // two ghosts per side
  static thread_local std::vector<P5> w;
  static thread_local std::vector<P5> slope;
  static thread_local std::vector<U5> flux;
  w.assign(static_cast<std::size_t>(N), P5{});
  slope.assign(static_cast<std::size_t>(N), P5{});
  flux.assign(static_cast<std::size_t>(n + 1), U5{});

  // Gather primitives with the sweep axis's momentum as the longitudinal u.
  for (int i = 0; i < n; ++i) {
    const Conserved& c = line[i];
    const double rho = std::max(c.rho, kFloor);
    double mu, mv, mw;
    switch (axis) {
      case 0: mu = c.mx; mv = c.my; mw = c.mz; break;
      case 1: mu = c.my; mv = c.mz; mw = c.mx; break;
      default: mu = c.mz; mv = c.mx; mw = c.my; break;
    }
    const double u = mu / rho, v = mv / rho, ww = mw / rho;
    const double kin = 0.5 * rho * (u * u + v * v + ww * ww);
    const double p = std::max((gamma - 1.0) * (c.e - kin), kFloor);
    w[static_cast<std::size_t>(i + 2)] = {rho, u, v, ww, p};
  }

  // Ghost cells.
  const auto fill_ghost = [&](int ghost, int src_edge, int mirror, Boundary bc) {
    switch (bc) {
      case Boundary::kOutflow:
        w[static_cast<std::size_t>(ghost)] = w[static_cast<std::size_t>(src_edge)];
        break;
      case Boundary::kReflect:
        w[static_cast<std::size_t>(ghost)] = w[static_cast<std::size_t>(mirror)];
        w[static_cast<std::size_t>(ghost)].u = -w[static_cast<std::size_t>(mirror)].u;
        break;
      case Boundary::kPeriodic:
        break;  // handled below
      case Boundary::kInflow: {
        const Primitive3& in = config_.inflow;
        double u, v, ww;
        switch (axis) {
          case 0: u = in.u; v = in.v; ww = in.w; break;
          case 1: u = in.v; v = in.w; ww = in.u; break;
          default: u = in.w; v = in.u; ww = in.v; break;
        }
        w[static_cast<std::size_t>(ghost)] = {in.rho, u, v, ww, in.p};
        break;
      }
    }
  };
  fill_ghost(1, 2, 2, lo);
  fill_ghost(0, 2, 3, lo);
  fill_ghost(n + 2, n + 1, n + 1, hi);
  fill_ghost(n + 3, n + 1, n, hi);
  if (lo == Boundary::kPeriodic || hi == Boundary::kPeriodic) {
    w[1] = w[static_cast<std::size_t>(n + 1)];
    w[0] = w[static_cast<std::size_t>(n)];
    w[static_cast<std::size_t>(n + 2)] = w[2];
    w[static_cast<std::size_t>(n + 3)] = w[3];
  }

  // Minmod-limited slopes of the primitives.
  for (int i = 1; i < N - 1; ++i) {
    const P5& m = w[static_cast<std::size_t>(i - 1)];
    const P5& c = w[static_cast<std::size_t>(i)];
    const P5& pl = w[static_cast<std::size_t>(i + 1)];
    slope[static_cast<std::size_t>(i)] = {
        minmod(c.rho - m.rho, pl.rho - c.rho), minmod(c.u - m.u, pl.u - c.u),
        minmod(c.v - m.v, pl.v - c.v), minmod(c.w - m.w, pl.w - c.w),
        minmod(c.p - m.p, pl.p - c.p)};
  }

  // Face fluxes: face f sits between padded cells (f+1) and (f+2).
  for (int f = 0; f <= n; ++f) {
    const int il = f + 1, ir = f + 2;
    const P5& cl = w[static_cast<std::size_t>(il)];
    const P5& sl = slope[static_cast<std::size_t>(il)];
    const P5& cr = w[static_cast<std::size_t>(ir)];
    const P5& sr = slope[static_cast<std::size_t>(ir)];
    P5 L{cl.rho + 0.5 * sl.rho, cl.u + 0.5 * sl.u, cl.v + 0.5 * sl.v,
         cl.w + 0.5 * sl.w, cl.p + 0.5 * sl.p};
    P5 R{cr.rho - 0.5 * sr.rho, cr.u - 0.5 * sr.u, cr.v - 0.5 * sr.v,
         cr.w - 0.5 * sr.w, cr.p - 0.5 * sr.p};
    L.rho = std::max(L.rho, kFloor);
    L.p = std::max(L.p, kFloor);
    R.rho = std::max(R.rho, kFloor);
    R.p = std::max(R.p, kFloor);
    flux[static_cast<std::size_t>(f)] = hllc_flux(L, R, gamma);
  }

  // Conservative update; scatter back with the axis permutation undone.
  const double lambda = dt / config_.dx;
  for (int i = 0; i < n; ++i) {
    const P5& c = w[static_cast<std::size_t>(i + 2)];
    U5 u = to_conserved(c, gamma);
    u = add(u, flux[static_cast<std::size_t>(i)], lambda);
    u = add(u, flux[static_cast<std::size_t>(i + 1)], -lambda);
    Conserved& out = line[i];
    out.rho = std::max(u.rho, kFloor);
    switch (axis) {
      case 0: out.mx = u.mu; out.my = u.mv; out.mz = u.mw; break;
      case 1: out.my = u.mu; out.mz = u.mv; out.mx = u.mw; break;
      default: out.mz = u.mu; out.mx = u.mv; out.my = u.mw; break;
    }
    out.e = u.e;
  }
}

void EulerSolver3D::sweep_axis(int axis, double dt) {
  // A pencil runs along `axis` with `stride` between its cells; pencils are
  // numbered p = a + na * b over the two transverse axes, a varying
  // fastest, so neighbouring pencils share cache lines.
  const std::size_t row = static_cast<std::size_t>(nx_);
  const std::size_t plane = row * static_cast<std::size_t>(ny_);
  int n = 0, na = 0;
  std::size_t stride = 0, step_a = 0, step_b = 0, pencils = 0;
  switch (axis) {
    case 0:
      n = nx_; stride = 1;
      na = ny_; step_a = row; step_b = plane;
      pencils = static_cast<std::size_t>(ny_) * static_cast<std::size_t>(nz_);
      break;
    case 1:
      n = ny_; stride = row;
      na = nx_; step_a = 1; step_b = plane;
      pencils = static_cast<std::size_t>(nx_) * static_cast<std::size_t>(nz_);
      break;
    default:
      n = nz_; stride = plane;
      na = nx_; step_a = 1; step_b = row;
      pencils = static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_);
      break;
  }
  if (n < 2) return;
  const Boundary lo = config_.boundaries[static_cast<std::size_t>(2 * axis)];
  const Boundary hi =
      config_.boundaries[static_cast<std::size_t>(2 * axis + 1)];
  const auto len = static_cast<std::size_t>(n);
  util::parallel_for(pool_, 0, pencils, [&](std::size_t p0, std::size_t p1) {
    std::vector<Conserved> line(len);
    for (std::size_t p = p0; p < p1; ++p) {
      const std::size_t a = p % static_cast<std::size_t>(na);
      const std::size_t b = p / static_cast<std::size_t>(na);
      Conserved* first = cells_.data() + a * step_a + b * step_b;
      for (std::size_t i = 0; i < len; ++i) line[i] = first[i * stride];
      sweep_pencil(line.data(), n, axis, dt, lo, hi);
      for (std::size_t i = 0; i < len; ++i) first[i * stride] = line[i];
    }
  });
}

void EulerSolver3D::sweepx(double dt) { sweep_axis(0, dt); }

void EulerSolver3D::sweepy(double dt) { sweep_axis(1, dt); }

void EulerSolver3D::sweepz(double dt) { sweep_axis(2, dt); }

void EulerSolver3D::step() {
  const double dt = compute_dt();
  if (cycle_ % 2 == 0) {
    sweepx(dt);
    sweepy(dt);
    sweepz(dt);
  } else {
    sweepz(dt);
    sweepy(dt);
    sweepx(dt);
  }
  time_ += dt;
  ++cycle_;
  if (post_step_) post_step_(*this);
}

data::ScalarVolume EulerSolver3D::snapshot(Field field) const {
  const char* names[] = {"density", "pressure", "velocity", "energy"};
  data::ScalarVolume out(nx_, ny_, nz_, names[static_cast<int>(field)]);
  for (int k = 0; k < nz_; ++k) {
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        const Primitive3 s = primitive(i, j, k);
        float v = 0;
        switch (field) {
          case Field::kDensity: v = static_cast<float>(s.rho); break;
          case Field::kPressure: v = static_cast<float>(s.p); break;
          case Field::kVelocityMagnitude:
            v = static_cast<float>(
                std::sqrt(s.u * s.u + s.v * s.v + s.w * s.w));
            break;
          case Field::kEnergy:
            v = static_cast<float>(cells_[index(i, j, k)].e);
            break;
        }
        out.at(i, j, k) = v;
      }
    }
  }
  return out;
}

data::VectorVolume EulerSolver3D::velocity() const {
  data::VectorVolume out(nx_, ny_, nz_);
  for (int k = 0; k < nz_; ++k) {
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        const Primitive3 s = primitive(i, j, k);
        out.at(i, j, k) = data::Vec3{static_cast<float>(s.u),
                                     static_cast<float>(s.v),
                                     static_cast<float>(s.w)};
      }
    }
  }
  return out;
}

double EulerSolver3D::total_mass() const {
  double m = 0;
  for (const Conserved& c : cells_) m += c.rho;
  return m * config_.dx * config_.dx * config_.dx;
}

double EulerSolver3D::total_energy() const {
  double e = 0;
  for (const Conserved& c : cells_) e += c.e;
  return e * config_.dx * config_.dx * config_.dx;
}

}  // namespace ricsa::hydro
