// Dimensionally-split finite-volume solver for the 3D Euler equations —
// the stand-in for the VH1 hydrodynamics code the paper instruments
// (Fig. 7's "sweepx; sweepy; sweepz" main loop is exactly this solver's
// step() body). MUSCL (minmod-limited) reconstruction + HLLC fluxes.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "data/volume.hpp"
#include "util/thread_pool.hpp"

namespace ricsa::hydro {

enum class Boundary { kOutflow, kReflect, kPeriodic, kInflow };

enum class Field { kDensity, kPressure, kVelocityMagnitude, kEnergy };

struct Conserved {
  double rho = 1.0;
  double mx = 0.0, my = 0.0, mz = 0.0;
  double e = 1.0;  // total energy density
};

struct Primitive3 {
  double rho = 1.0;
  double u = 0.0, v = 0.0, w = 0.0;
  double p = 1.0;
};

struct EulerConfig {
  double gamma = 1.4;
  double cfl = 0.4;
  /// Cell size (cubic cells).
  double dx = 1.0;
  std::array<Boundary, 6> boundaries = {Boundary::kOutflow, Boundary::kOutflow,
                                        Boundary::kOutflow, Boundary::kOutflow,
                                        Boundary::kOutflow, Boundary::kOutflow};
  /// Fixed state used by kInflow boundaries.
  Primitive3 inflow{1.0, 0.0, 0.0, 0.0, 1.0};
};

class EulerSolver3D {
 public:
  EulerSolver3D(int nx, int ny, int nz, EulerConfig config = {});

  int nx() const noexcept { return nx_; }
  int ny() const noexcept { return ny_; }
  int nz() const noexcept { return nz_; }
  double time() const noexcept { return time_; }
  int cycle() const noexcept { return cycle_; }

  EulerConfig& config() noexcept { return config_; }
  const EulerConfig& config() const noexcept { return config_; }

  /// Lend a worker pool: the sweeps then split by pencil and compute_dt by
  /// z-slab, bit-identical to the serial path. Null (the default) runs
  /// serially; the pool must outlive its use here.
  void set_pool(util::ThreadPool* pool) noexcept { pool_ = pool; }

  Primitive3 primitive(int i, int j, int k) const;
  void set_primitive(int i, int j, int k, const Primitive3& state);
  Conserved& conserved(int i, int j, int k) { return cells_[index(i, j, k)]; }
  const Conserved& conserved(int i, int j, int k) const {
    return cells_[index(i, j, k)];
  }

  /// Largest stable timestep under the configured CFL number.
  double compute_dt() const;

  /// One full cycle: sweepx, sweepy, sweepz at a common dt (Strang order
  /// alternates between cycles to cancel splitting bias), then the per-step
  /// hook (used by setups to maintain sources, e.g. the stellar wind).
  void step();

  /// Directional sweeps, exposed with VH1's names (Fig. 7).
  void sweepx(double dt);
  void sweepy(double dt);
  void sweepz(double dt);

  /// Hook invoked at the end of every step().
  void set_post_step(std::function<void(EulerSolver3D&)> hook) {
    post_step_ = std::move(hook);
  }

  /// Snapshot a field as a float volume (what gets pushed to the viz node).
  data::ScalarVolume snapshot(Field field) const;
  data::VectorVolume velocity() const;

  /// Total mass / energy over the domain (conservation diagnostics).
  double total_mass() const;
  double total_energy() const;

 private:
  std::size_t index(int i, int j, int k) const {
    return static_cast<std::size_t>(i) +
           static_cast<std::size_t>(nx_) *
               (static_cast<std::size_t>(j) +
                static_cast<std::size_t>(ny_) * static_cast<std::size_t>(k));
  }
  /// Sweep a single pencil of `n` cells (stride-gathered); axis selects which
  /// momentum component is longitudinal; lo/hi are that axis's boundaries.
  void sweep_pencil(Conserved* line, int n, int axis, double dt, Boundary lo,
                    Boundary hi);
  /// Sweep every pencil along `axis` (0 = x, 1 = y, 2 = z), in parallel on
  /// the lent pool when there is one. Pencils are disjoint, so any split
  /// gives the serial result.
  void sweep_axis(int axis, double dt);

  int nx_, ny_, nz_;
  EulerConfig config_;
  std::vector<Conserved> cells_;
  double time_ = 0.0;
  int cycle_ = 0;
  std::function<void(EulerSolver3D&)> post_step_;
  util::ThreadPool* pool_ = nullptr;
};

}  // namespace ricsa::hydro
