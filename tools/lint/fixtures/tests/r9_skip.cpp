// Fixture: R9 — GTEST_SKIP under tests/.  A skipped test reports as a pass,
// so a data-dependent skip drops its check without anyone noticing.  Each
// `expect(Rn)` marks a line the linter must diagnose.
#include <gtest/gtest.h>

bool usable_draw();

// Violation: the check silently disappears whenever the draw is unusable.
TEST(Fixture, SkipsOnItsData) {
  if (!usable_draw()) GTEST_SKIP();  // expect(R9)
}

// Violation: R9 cannot be suppressed — an allow() does not silence it.
TEST(Fixture, SuppressedSkipStillFires) {
  GTEST_SKIP();  // gather-lint: allow(R9) expect(R9)
}

// Negative: asserting the precondition fails loudly instead; naming
// GTEST_SKIP in a comment or a string literal is not a skip.
TEST(Fixture, AssertsItsPrecondition) {
  ASSERT_TRUE(usable_draw());
  const char* note = "GTEST_SKIP is banned";
  static_cast<void>(note);
}
