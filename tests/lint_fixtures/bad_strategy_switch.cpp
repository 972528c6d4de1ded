// lint:pretend-path: src/service/fixture_dispatch.cpp
// Fixture: a service file re-deriving a strategy's fault kind with its own
// switch instead of reading the strategy table.

namespace dbr::fixture {

enum class Strategy { kAuto, kFfc, kEdgeAuto };

int fault_kind_of(Strategy s) {
  switch (s) {
    // expect-violation: strategy-dispatch
    case Strategy::kFfc:
      return 0;
    default:
      return 1;
  }
}

}  // namespace dbr::fixture
