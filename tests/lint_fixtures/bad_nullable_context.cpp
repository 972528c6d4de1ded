// lint:pretend-path: src/core/fixture_edge.cpp
// Fixture: a core construction threading a nullable context so that a
// context-less caller can share it — the second solve path the library no
// longer keeps. References to the context stay legal.

namespace dbr::fixture {

class InstanceContext {};

int solve_with_context(const InstanceContext& ctx) { return sizeof(ctx) > 0; }

// expect-violation: context-backed-core
int solve_maybe_context(const InstanceContext* ctx) {
  return ctx != nullptr ? 1 : 0;
}

}  // namespace dbr::fixture
