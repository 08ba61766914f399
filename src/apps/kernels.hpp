// Multi-zone computational kernels modeled after NPB-MZ 3.3.
//
// The evaluation does not need NPB's numerics — it needs hybrid workloads
// with the same *structure*: zones partitioned across MPI ranks, OpenMP
// threads sweeping zones within a rank, halo exchange between neighbour
// ranks each iteration, and a global residual reduction.  The three kernel
// flavours mirror the originals' algorithmic shape: LU uses SSOR-style
// forward/backward wavefront sweeps; BT and SP use ADI-style line sweeps
// (BT with a heavier 5-point body, SP with a lighter scalar one).
//
// Every array store goes through baselines::itc_trace so the ITC-like tool's
// full-memory monitoring has something real to monitor.
#pragma once

#include <cstddef>
#include <vector>

namespace home::apps {

enum class AppKind { kLU, kBT, kSP };

const char* app_kind_name(AppKind kind);

/// One zone: a square grid of doubles with a one-cell halo ring.
class Zone {
 public:
  Zone(int interior, double fill);

  int interior() const { return n_; }
  int stride() const { return n_ + 2; }

  double& at(int i, int j) { return data_[index(i, j)]; }
  const double& at(int i, int j) const { return data_[index(i, j)]; }

  /// Boundary rows for halo exchange (interior cells adjacent to the halo).
  std::vector<double> east_edge() const;
  void set_west_halo(const std::vector<double>& values);

  /// Sum of squared interior values (residual contribution).
  double residual() const;

 private:
  std::size_t index(int i, int j) const {
    return static_cast<std::size_t>(i + 1) * static_cast<std::size_t>(stride()) +
           static_cast<std::size_t>(j + 1);
  }
  int n_;
  std::vector<double> data_;
};

/// One solver iteration on one zone (dispatches on kind).
void sweep_zone(AppKind kind, Zone& zone);

/// LU-MZ: SSOR forward + backward wavefront relaxation.
void ssor_sweep(Zone& zone);

/// BT-MZ: ADI x/y line sweeps with a block-ish 5-point body.
void adi_bt_sweep(Zone& zone);

/// SP-MZ: scalar penta-ish line sweeps (lighter body).
void adi_sp_sweep(Zone& zone);

}  // namespace home::apps
