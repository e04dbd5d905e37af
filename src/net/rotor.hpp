// Rotor slot driver: time-sliced matching rotation over a fabric overlay.
//
// A rotor fabric (topo::Topology::rotor) lays down the links of every
// matching statically; at any instant exactly one matching is live. This
// driver advances the live slot on the discrete-event engine: every
// `rotor_slot_s()` seconds it re-prices the outgoing matching's links to
// zero and the incoming matching's links to the active capacity through ONE
// batched `FabricOverlay::set_link_capacities` call — so the overlay's
// capacity epoch moves exactly once per slot transition — and then wakes the
// flow simulator (`FlowSim::notify_capacity_change`) so flows stalled on a
// dark link re-resolve the moment their matching returns.
//
// Slot state lives entirely in the session's overlay. The shared
// `TopologySnapshot` is never touched: a slot change re-prices links but
// never adds, removes or fails one, so every route stays the same and
// sibling sessions on the same snapshot observe no epoch movement.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/fabric.hpp"
#include "net/flowsim.hpp"
#include "sim/engine.hpp"

namespace xscale::net {

class RotorSchedule {
 public:
  // `fabric` must wrap a rotor topology (throws std::invalid_argument
  // otherwise). `fs`, when given, is notified after every transition; it also
  // provides the auto-stop criterion below.
  RotorSchedule(sim::Engine& eng, Fabric& fabric, FlowSim* fs = nullptr);
  ~RotorSchedule() { stop(); }
  RotorSchedule(const RotorSchedule&) = delete;
  RotorSchedule& operator=(const RotorSchedule&) = delete;

  // Schedule the first transition at now() + slot_s. The rotation then
  // self-perpetuates, EXCEPT that a transition firing with nothing left to
  // drive — no active flows (with a FlowSim attached) and an otherwise empty
  // event queue — does not reschedule, so `Engine::run()` drains instead of
  // spinning slots forever. `start()` after such an auto-stop (or after
  // `stop()`) resumes from the current slot. With a single matching there is
  // nothing to rotate and start() is a no-op.
  void start();
  // Cancel the pending transition event (the current slot's pricing stays).
  void stop();

  bool running() const { return has_event_; }
  int current_slot() const { return slot_; }
  std::uint64_t transitions() const { return transitions_; }

 private:
  void advance();

  sim::Engine& eng_;
  Fabric& fabric_;
  FlowSim* fs_;
  int n_matchings_;
  double slot_s_;
  double active_capacity_;
  int slot_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t event_ = 0;
  bool has_event_ = false;
  std::vector<std::vector<int>> matching_links_;  // per matching, link ids
  std::vector<std::pair<int, double>> batch_;     // reused per transition
  std::vector<int> changed_links_;                // reused per transition
};

}  // namespace xscale::net
