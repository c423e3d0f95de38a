// fixture-path: src/core/det_clock_rand.cc
// fixture-rules: determinism
//
// Raw clocks outside the sanctioned timing layer; stdlib RNGs anywhere.

#include <chrono>
#include <cstdlib>
#include <random>

namespace txrep::core {

long StampNow() {
  return std::chrono::steady_clock::now().time_since_epoch().count();  // expect: det-nondet-clock
}

long WallNow() {
  return std::chrono::system_clock::now().time_since_epoch().count();  // expect: det-nondet-clock
}

int Jitter() {
  return rand() % 10;  // expect: det-nondet-rand
}

unsigned Seed() {
  std::random_device rd;  // expect: det-nondet-rand
  return rd();
}

int Roll() {
  std::mt19937 gen(42);  // expect: det-nondet-rand
  std::uniform_int_distribution<int> die(1, 6);  // expect: det-nondet-rand
  return die(gen);
}

long Legacy() {
  return random();  // expect: det-nondet-rand
}

// `rand` as part of an ordinary identifier is not a diagnostic.
int rand_budget = 3;
int UseBudget() { return rand_budget; }

}  // namespace txrep::core
