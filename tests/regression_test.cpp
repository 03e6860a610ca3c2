// Regression corpus: configurations that exposed real defects during the
// development of this reproduction, pinned forever.  Each test documents the
// defect it guards against.
#include <gtest/gtest.h>

#include <cmath>

#include "config/config.h"
#include "core/core.h"
#include "geometry/angles.h"
#include "sim/sim.h"
#include "sim_support.h"

namespace gather {
namespace {

using config::config_class;
using config::configuration;
using geom::vec2;

const core::wait_free_gather kAlgo;

// Defect 1: views of a 4-fold symmetric two-ring configuration split into
// classes {2, 4, 2} instead of {4, 4} -- a point diametrically opposite the
// observer (exactly on the reference ray towards the sec center) read as
// angle ~2*pi in one twin's view and ~0 in another's, scrambling the
// lexicographic order.  Fixed by snapping near-axis directions to exactly 0.
TEST(Regression, DiametralViewSeam) {
  std::vector<vec2> pts;
  for (int ring = 0; ring < 2; ++ring) {
    const double r = ring == 0 ? 1.8220157557375897 : 2.9423262965060921;
    const double phase = ring == 0 ? 0.6755108588560398 : 3.017237659043032;
    for (int k = 0; k < 4; ++k) {
      const double a = phase + k * geom::two_pi / 4.0;
      pts.push_back({r * std::cos(a), r * std::sin(a)});
    }
  }
  const configuration c(pts);
  EXPECT_EQ(config::symmetry(c), 4);
  for (const auto& cls : config::view_classes(c)) {
    EXPECT_EQ(cls.size(), 4u);
  }
}

// Defect 2: the geometric median of this 5-point set is the data point
// (0,0), but the over-relaxed Weiszfeld iteration settled into a 2-cycle
// around a non-optimal point and Newton could not converge onto the kink.
// Fixed by testing the subgradient optimality condition at every data point
// first.
TEST(Regression, MedianAtDataPoint) {
  const configuration c({{0, 0}, {5, 0}, {1, 3}, {-2, 1}, {0.5, -2.5}});
  const auto med = config::geometric_median_weiszfeld(c);
  ASSERT_TRUE(med.has_value());
  EXPECT_EQ(*med, (vec2{0, 0}));
}

// Defect 3: a regular pentagon mid-flight towards its center (robots at
// very different radii on exact 72-degree rays) was misclassified as A for
// one round because the plain Weiszfeld result was ~1e-4 off the center and
// the angular periodicity check failed.  Fixed by the Newton polish.
TEST(Regression, ShrunkenPentagonStaysQR) {
  const std::vector<vec2> pts = {
      {0.4827152814647121, 0.0},
      {0.044528888187503946, 0.13704582610339866},
      {-0.16157732206053088, 0.11739279603807995},
      {-0.13397959912753771, -0.097341876651335257},
      {0.093167172205382939, -0.28673907210179073}};
  // Re-express on exact rays to remove transcription noise: the property we
  // pin is that radii-perturbed points on periodic rays classify as QR.
  std::vector<vec2> clean;
  const double radii[5] = {0.48, 0.144, 0.2, 0.166, 0.3};
  for (int k = 0; k < 5; ++k) {
    const double a = -geom::two_pi * k / 5.0;  // clockwise pentagon rays
    clean.push_back({radii[k] * std::cos(a), radii[k] * std::sin(a)});
  }
  for (const auto& instance : {pts, clean}) {
    const auto cls = config::classify(configuration(instance));
    EXPECT_EQ(cls.cls, config_class::quasi_regular);
    if (cls.target) {
      EXPECT_NEAR(cls.target->x, 0.0, 1e-6);
      EXPECT_NEAR(cls.target->y, 0.0, 1e-6);
    }
  }
}

// Defect 4: once a swarm had converged numerically (diameter ~1e-15 around
// coordinates of magnitude ~1), the spread-relative tolerance stopped
// identifying co-located robots and runs never terminated.  Fixed by the
// magnitude-based absolute tolerance floor.
TEST(Regression, ConvergedSwarmReadsGathered) {
  std::vector<vec2> pts;
  for (int i = 0; i < 5; ++i) {
    pts.push_back({0.7071067811865476 + i * 3e-16, 0.5 - i * 2e-16});
  }
  const configuration c(pts);
  EXPECT_TRUE(c.is_gathered());
}

// Defect 5: text round-trips lost precision (streams default to 6
// significant digits), so replayed configurations classified differently.
// Fixed by writing max_digits10.  Pinned via a value whose 6-digit rounding
// moves it across a co-location boundary.
TEST(Regression, PointsRoundTripPrecision) {
  const double x = 1.0000001234567899;
  std::stringstream ss;
  ss.precision(17);
  ss << x;
  double back = 0.0;
  ss >> back;
  EXPECT_EQ(back, x);
}

// Defect 6: the L2W rule froze when both endpoint robots crashed *and* a
// middle robot sat exactly at the segment center (its destination equalled
// its position, which is correct -- the guard is that the engine must not
// declare a premature fixpoint while other middle robots still move).
TEST(Regression, L2WCenterOccupiedStillProgresses) {
  // Even count, distinct medians (4 and 6), with a robot already at the
  // segment center x = 6.
  const std::vector<vec2> pts = {{0, 0}, {2, 0}, {6, 0}, {10, 0}, {12, 0}, {4, 0}};
  const configuration c(pts);
  ASSERT_EQ(config::classify(c).cls, config_class::linear_2w);
  auto sched = sim::make_fair_random();
  auto move = sim::make_random_stop();
  auto crash = sim::make_scheduled_crashes({{0, 0}, {0, 4}});
  sim::sim_options opts;
  const auto res = sim::run_sim(pts, kAlgo, *sched, *move, *crash, opts);
  EXPECT_EQ(res.status, sim::sim_status::gathered);
  EXPECT_NEAR(res.gather_point.x, 6.0, 1e-6);
}

// Defect 7: near-degenerate side-steps (angular gap close to the angle
// tolerance) produced commanded displacements below the co-location
// tolerance and were miscounted as "stationary", tripping the Lemma 5.1
// online check.  Quiescence is now measured at a finer scale.
TEST(Regression, TinySideStepIsNotStationary) {
  // Two rays from the elected point separated by ~1e-6 rad.
  std::vector<vec2> pts = {{0, 0}, {0, 0}, {0, 0}};
  pts.push_back({10.0, 0.0});
  pts.push_back(geom::rotated_cw_about({12.0, 0.0}, {0, 0}, 1e-6));
  pts.push_back({14.0, 1e-5});  // blocker structure on a third near ray
  const configuration c(pts);
  ASSERT_EQ(config::classify(c).cls, config_class::multiple);
  const auto stat = core::stationary_locations(c, kAlgo);
  EXPECT_LE(stat.size(), 1u);
  EXPECT_TRUE(core::satisfies_wait_freeness(c, kAlgo));
}

}  // namespace
}  // namespace gather
