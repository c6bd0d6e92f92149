// Hydrodynamics tests: exact Riemann solver invariants, Sod shock tube vs
// the exact solution, conservation properties, boundary conditions, the
// bowshock/Sedov setups, the Steerable adapter, and pooled sweeps matching
// the serial solver bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "hydro/euler.hpp"
#include "hydro/riemann_exact.hpp"
#include "hydro/setups.hpp"
#include "hydro/steerable.hpp"
#include "util/thread_pool.hpp"

namespace h = ricsa::hydro;

// --------------------------------------------------------- ExactRiemann ----

TEST(ExactRiemann, SodStarState) {
  // Canonical star-region values for Sod's problem (Toro, Table 4.2):
  // p* = 0.30313, u* = 0.92745.
  const auto star = h::solve_riemann(h::sod_left(), h::sod_right(), 1.4);
  EXPECT_NEAR(star.p_star, 0.30313, 2e-4);
  EXPECT_NEAR(star.u_star, 0.92745, 2e-4);
  EXPECT_LT(star.iterations, 50);
}

TEST(ExactRiemann, SymmetricProblemHasZeroContactVelocity) {
  const h::PrimitiveState L{1.0, 0.0, 1.0};
  const h::PrimitiveState R{1.0, 0.0, 1.0};
  const auto star = h::solve_riemann(L, R, 1.4);
  EXPECT_NEAR(star.u_star, 0.0, 1e-12);
  EXPECT_NEAR(star.p_star, 1.0, 1e-10);
}

TEST(ExactRiemann, TwoShockCollision) {
  // Colliding streams create two shocks: p* far above both inputs.
  const h::PrimitiveState L{1.0, 2.0, 1.0};
  const h::PrimitiveState R{1.0, -2.0, 1.0};
  const auto star = h::solve_riemann(L, R, 1.4);
  EXPECT_GT(star.p_star, 4.0);
  EXPECT_NEAR(star.u_star, 0.0, 1e-10);
}

TEST(ExactRiemann, VacuumDetection) {
  // Strongly receding streams -> vacuum; solver must refuse.
  const h::PrimitiveState L{1.0, -10.0, 0.01};
  const h::PrimitiveState R{1.0, 10.0, 0.01};
  EXPECT_THROW(h::solve_riemann(L, R, 1.4), std::runtime_error);
}

TEST(ExactRiemann, SampleRecoversEndStates) {
  const auto star = h::solve_riemann(h::sod_left(), h::sod_right(), 1.4);
  const auto far_left =
      h::sample_riemann(h::sod_left(), h::sod_right(), 1.4, star, -100.0);
  EXPECT_NEAR(far_left.rho, 1.0, 1e-12);
  const auto far_right =
      h::sample_riemann(h::sod_left(), h::sod_right(), 1.4, star, 100.0);
  EXPECT_NEAR(far_right.rho, 0.125, 1e-12);
}

TEST(ExactRiemann, SodProfileMonotoneDensitySegments) {
  std::vector<double> rho(200);
  h::sod_exact_profile(0.2, 0.5, 200, 1.4, rho.data(), nullptr, nullptr);
  EXPECT_NEAR(rho.front(), 1.0, 1e-9);
  EXPECT_NEAR(rho.back(), 0.125, 1e-9);
  // Density decreases monotonically from left state to the shocked state.
  for (std::size_t i = 1; i < rho.size(); ++i) {
    EXPECT_LE(rho[i], rho[i - 1] + 0.2);  // only the shock jumps up-steam side
  }
}

// ------------------------------------------------------------ EulerSod ----

TEST(EulerSolver, SodMatchesExactSolution) {
  h::SodOptions opt;
  opt.nx = 400;
  auto solver = h::make_sod(opt);
  while (solver->time() < 0.2) solver->step();

  std::vector<double> rho_exact(400), u_exact(400), p_exact(400);
  h::sod_exact_profile(solver->time(), 0.5, 400, 1.4, rho_exact.data(),
                       u_exact.data(), p_exact.data());

  double l1 = 0;
  for (int i = 0; i < 400; ++i) {
    l1 += std::abs(solver->primitive(i, 0, 0).rho - rho_exact[i]);
  }
  l1 /= 400.0;
  // MUSCL-HLLC at N=400 should sit well under 1% mean absolute error.
  EXPECT_LT(l1, 0.01);

  // Spot-check the plateau values.
  const auto star = h::solve_riemann(h::sod_left(), h::sod_right(), 1.4);
  const auto mid = solver->primitive(260, 0, 0);  // contact/star region
  EXPECT_NEAR(mid.p, star.p_star, 0.02);
  EXPECT_NEAR(mid.u, star.u_star, 0.03);
}

TEST(EulerSolver, SodConservesMassWithClosedEnds) {
  h::SodOptions opt;
  opt.nx = 100;
  auto solver = h::make_sod(opt);
  solver->config().boundaries = {h::Boundary::kReflect, h::Boundary::kReflect,
                                 h::Boundary::kOutflow, h::Boundary::kOutflow,
                                 h::Boundary::kOutflow, h::Boundary::kOutflow};
  const double m0 = solver->total_mass();
  const double e0 = solver->total_energy();
  for (int i = 0; i < 50; ++i) solver->step();
  EXPECT_NEAR(solver->total_mass(), m0, 1e-10 * m0);
  EXPECT_NEAR(solver->total_energy(), e0, 1e-10 * e0);
}

TEST(EulerSolver, UniformStateIsSteady) {
  h::EulerConfig config;
  h::EulerSolver3D solver(8, 8, 8, config);
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 8; ++i)
        solver.set_primitive(i, j, k, {1.0, 0, 0, 0, 1.0});
  for (int s = 0; s < 5; ++s) solver.step();
  for (int k = 0; k < 8; ++k) {
    for (int j = 0; j < 8; ++j) {
      for (int i = 0; i < 8; ++i) {
        const auto p = solver.primitive(i, j, k);
        EXPECT_NEAR(p.rho, 1.0, 1e-12);
        EXPECT_NEAR(p.u, 0.0, 1e-12);
        EXPECT_NEAR(p.p, 1.0, 1e-12);
      }
    }
  }
}

TEST(EulerSolver, PeriodicAdvectionReturns) {
  // Advect a density bump around a periodic x domain; after one period the
  // bump returns (diffused but centred at the start).
  h::EulerConfig config;
  config.gamma = 1.4;
  config.dx = 1.0 / 64;
  config.cfl = 0.4;
  config.boundaries = {h::Boundary::kPeriodic, h::Boundary::kPeriodic,
                       h::Boundary::kOutflow, h::Boundary::kOutflow,
                       h::Boundary::kOutflow, h::Boundary::kOutflow};
  h::EulerSolver3D solver(64, 1, 1, config);
  const double u0 = 1.0;
  for (int i = 0; i < 64; ++i) {
    const double x = (i + 0.5) / 64.0;
    const double bump = 1.0 + 0.2 * std::exp(-200.0 * (x - 0.3) * (x - 0.3));
    solver.set_primitive(i, 0, 0, {bump, u0, 0, 0, 1.0});
  }
  const double m0 = solver.total_mass();
  while (solver.time() < 1.0) solver.step();  // one flow-through period
  EXPECT_NEAR(solver.total_mass(), m0, 1e-10 * m0);
  // The densest cell should again be near x = 0.3 (within a few cells).
  int argmax = 0;
  double best = 0;
  for (int i = 0; i < 64; ++i) {
    if (solver.primitive(i, 0, 0).rho > best) {
      best = solver.primitive(i, 0, 0).rho;
      argmax = i;
    }
  }
  const double x_peak = (argmax + 0.5) / 64.0;
  EXPECT_NEAR(x_peak, 0.3, 0.12);
}

TEST(EulerSolver, ReflectingWallStopsFlow) {
  h::EulerConfig config;
  config.dx = 1.0 / 32;
  config.boundaries = {h::Boundary::kReflect, h::Boundary::kReflect,
                       h::Boundary::kOutflow, h::Boundary::kOutflow,
                       h::Boundary::kOutflow, h::Boundary::kOutflow};
  h::EulerSolver3D solver(32, 1, 1, config);
  for (int i = 0; i < 32; ++i) solver.set_primitive(i, 0, 0, {1, 0.5, 0, 0, 1});
  const double m0 = solver.total_mass();
  for (int s = 0; s < 40; ++s) solver.step();
  EXPECT_NEAR(solver.total_mass(), m0, 1e-9 * m0);  // nothing leaks out
}

TEST(EulerSolver, DtPositiveAndCflScaled) {
  auto solver = h::make_sod();
  const double dt1 = solver->compute_dt();
  EXPECT_GT(dt1, 0.0);
  solver->config().cfl *= 0.5;
  EXPECT_NEAR(solver->compute_dt(), 0.5 * dt1, 1e-12);
}

TEST(EulerSolver, SnapshotFieldsConsistent) {
  auto solver = h::make_sod();
  const auto rho = solver->snapshot(h::Field::kDensity);
  const auto p = solver->snapshot(h::Field::kPressure);
  EXPECT_EQ(rho.nx(), solver->nx());
  EXPECT_FLOAT_EQ(rho.at(0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(rho.at(solver->nx() - 1, 0, 0), 0.125f);
  EXPECT_FLOAT_EQ(p.at(0, 0, 0), 1.0f);
  EXPECT_EQ(rho.variable(), "density");
}

TEST(EulerSolver, RejectsBadDimensions) {
  EXPECT_THROW(h::EulerSolver3D(0, 4, 4), std::invalid_argument);
}

// -------------------------------------------------------------- Bowshock ----

TEST(Bowshock, FormsCompressionUpstreamOfObstacle) {
  h::BowshockOptions opt;
  opt.n = 32;
  opt.mach = 2.5;
  auto solver = h::make_bowshock(opt);
  for (int s = 0; s < 120; ++s) solver->step();
  // Sample along the stagnation line upstream of the source (source centre
  // at x = 0.55 n = 17.6, radius 0.12 n = 3.8; the bow shock stands a short
  // standoff distance upstream of x ~ 14): between inflow and source there
  // must be a density jump above ambient.
  const int j = 16, k = 16;
  double max_rho = 0;
  for (int i = 2; i < 14; ++i) {
    max_rho = std::max(max_rho, solver->primitive(i, j, k).rho);
  }
  EXPECT_GT(max_rho, 1.5) << "bow shock compression must exceed ambient";
  // Far corner stays near ambient.
  EXPECT_NEAR(solver->primitive(2, 2, 2).rho, 1.0, 0.5);
}

TEST(Bowshock, SourceRegionMaintained) {
  h::BowshockOptions opt;
  opt.n = 24;
  auto solver = h::make_bowshock(opt);
  for (int s = 0; s < 10; ++s) solver->step();
  // Center of the source ball keeps its steered density.
  const int cx = static_cast<int>(0.55 * 24), c = 12;
  EXPECT_NEAR(solver->primitive(cx, c, c).rho, opt.source_density, 1e-9);
}

// ----------------------------------------------------------------- Sedov ----

TEST(Sedov, BlastWaveExpandsSpherically) {
  h::SedovOptions opt;
  opt.n = 32;
  auto solver = h::make_sedov(opt);
  for (int s = 0; s < 25; ++s) solver->step();
  const int c = 16;
  // Shell: density peak at some radius away from center.
  double center_rho = solver->primitive(c, c, c).rho;
  double max_rho = 0;
  int argmax_r = 0;
  for (int i = 0; i < 16; ++i) {
    const double rho = solver->primitive(c + i, c, c).rho;
    if (rho > max_rho) {
      max_rho = rho;
      argmax_r = i;
    }
  }
  EXPECT_GT(argmax_r, 1);          // shell has detached from the center
  EXPECT_GT(max_rho, center_rho);  // evacuated interior
  // Spherical symmetry: +x and +y profiles agree to within the grid
  // anisotropy of the dimensionally-split scheme (largest near the shell).
  for (int i = 0; i < 14; ++i) {
    EXPECT_NEAR(solver->primitive(c + i, c, c).rho,
                solver->primitive(c, c + i, c).rho, 0.25);
  }
}

// -------------------------------------------------------------- Steerable ----

TEST(Steerable, HydroSimulationBasics) {
  h::HydroSimulation sim(h::HydroSimulation::Kind::kSod, 64);
  EXPECT_EQ(sim.name(), "sod_shock_tube");
  EXPECT_EQ(sim.cycle(), 0);
  sim.advance(3);
  EXPECT_EQ(sim.cycle(), 3);
  EXPECT_GT(sim.time(), 0.0);
  const auto vars = sim.variables();
  EXPECT_EQ(vars.size(), 4u);
  const auto rho = sim.snapshot("density");
  EXPECT_EQ(rho.nx(), 64);
  EXPECT_THROW(sim.snapshot("entropy"), std::invalid_argument);
}

TEST(Steerable, ParameterSteering) {
  h::HydroSimulation sim(h::HydroSimulation::Kind::kSod, 32);
  auto params = sim.parameters();
  EXPECT_NEAR(params.at("gamma"), 1.4, 1e-12);
  EXPECT_TRUE(sim.set_parameter("gamma", 1.67));
  EXPECT_NEAR(sim.parameters().at("gamma"), 1.67, 1e-12);
  EXPECT_FALSE(sim.set_parameter("gamma", 0.5));   // rejected: unphysical
  EXPECT_FALSE(sim.set_parameter("nonsense", 1.0));
  EXPECT_TRUE(sim.set_parameter("cfl", 0.3));
}

TEST(Steerable, BowshockSteeringChangesSource) {
  h::HydroSimulation sim(h::HydroSimulation::Kind::kBowshock, 20);
  EXPECT_TRUE(sim.set_parameter("source_density", 25.0));
  sim.advance(2);
  // After steering, the maintained source uses the new density.
  const auto rho = sim.snapshot("density");
  const int cx = static_cast<int>(0.55 * 20);
  EXPECT_NEAR(rho.at(cx, 10, 10), 25.0f, 1e-3f);
}

TEST(Steerable, SteeringMidRunChangesEvolution) {
  // The whole point of steering (Section 1): changing a parameter mid-run
  // must actually alter the computation's trajectory.
  h::HydroSimulation a(h::HydroSimulation::Kind::kSod, 64);
  h::HydroSimulation b(h::HydroSimulation::Kind::kSod, 64);
  a.advance(5);
  b.advance(5);
  EXPECT_TRUE(b.set_parameter("gamma", 1.8));
  a.advance(10);
  b.advance(10);
  const auto rho_a = a.snapshot("density");
  const auto rho_b = b.snapshot("density");
  double diff = 0;
  for (int i = 0; i < 64; ++i) {
    diff += std::abs(rho_a.at(i, 0, 0) - rho_b.at(i, 0, 0));
  }
  EXPECT_GT(diff, 0.01);
}

// ------------------------------------------------------- Pooled solver ----

namespace {

/// Every conserved cell equal to the bit, and the clocks too.
void expect_bitwise_equal(const h::EulerSolver3D& a, const h::EulerSolver3D& b) {
  ASSERT_EQ(a.nx(), b.nx());
  ASSERT_EQ(a.ny(), b.ny());
  ASSERT_EQ(a.nz(), b.nz());
  EXPECT_EQ(a.cycle(), b.cycle());
  const double ta = a.time(), tb = b.time();
  EXPECT_EQ(std::memcmp(&ta, &tb, sizeof ta), 0) << ta << " vs " << tb;
  int differing = 0;
  for (int k = 0; k < a.nz(); ++k) {
    for (int j = 0; j < a.ny(); ++j) {
      for (int i = 0; i < a.nx(); ++i) {
        if (std::memcmp(&a.conserved(i, j, k), &b.conserved(i, j, k),
                        sizeof(h::Conserved)) != 0) {
          ++differing;
        }
      }
    }
  }
  EXPECT_EQ(differing, 0);
}

}  // namespace

TEST(EulerSolver, PooledStepsMatchSerialBitwise) {
  // Pencil-split sweeps and the z-slab dt reduction on a pool must
  // reproduce the serial solver exactly, through a mid-run steer.
  ricsa::util::ThreadPool pool(4);
  h::HydroSimulation serial(h::HydroSimulation::Kind::kBowshock, 20);
  h::HydroSimulation pooled(h::HydroSimulation::Kind::kBowshock, 20);
  pooled.solver().set_pool(&pool);
  serial.advance(4);
  pooled.advance(4);
  ASSERT_TRUE(serial.set_parameter("mach", 4.0));
  ASSERT_TRUE(pooled.set_parameter("mach", 4.0));
  serial.advance(4);
  pooled.advance(4);
  expect_bitwise_equal(serial.solver(), pooled.solver());

  auto sedov_serial = h::make_sedov({.n = 18});
  auto sedov_pooled = h::make_sedov({.n = 18});
  ricsa::util::ThreadPool small(3);
  sedov_pooled->set_pool(&small);
  for (int i = 0; i < 6; ++i) {
    sedov_serial->step();
    sedov_pooled->step();
  }
  EXPECT_EQ(sedov_serial->compute_dt(), sedov_pooled->compute_dt());
  expect_bitwise_equal(*sedov_serial, *sedov_pooled);
}
