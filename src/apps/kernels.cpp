#include "src/apps/kernels.hpp"

#include <cmath>

#include "src/baselines/itc.hpp"

namespace home::apps {

using baselines::itc_trace;

const char* app_kind_name(AppKind kind) {
  switch (kind) {
    case AppKind::kLU: return "LU-MZ";
    case AppKind::kBT: return "BT-MZ";
    case AppKind::kSP: return "SP-MZ";
  }
  return "?";
}

Zone::Zone(int interior, double fill)
    : n_(interior),
      data_(static_cast<std::size_t>(interior + 2) *
                static_cast<std::size_t>(interior + 2),
            fill) {}

std::vector<double> Zone::east_edge() const {
  std::vector<double> edge(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) edge[static_cast<std::size_t>(i)] = at(i, n_ - 1);
  return edge;
}

void Zone::set_west_halo(const std::vector<double>& values) {
  for (int i = 0; i < n_ && i < static_cast<int>(values.size()); ++i) {
    double& cell = at(i, -1);
    cell = values[static_cast<std::size_t>(i)];
    itc_trace(&cell);
  }
}

double Zone::residual() const {
  double sum = 0.0;
  for (int i = 0; i < n_; ++i) {
    for (int j = 0; j < n_; ++j) sum += at(i, j) * at(i, j);
  }
  return sum;
}

void ssor_sweep(Zone& zone) {
  const int n = zone.interior();
  const double omega = 1.2;
  // Forward wavefront.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double& c = zone.at(i, j);
      itc_trace(&zone.at(i - 1, j), /*write=*/false);
      itc_trace(&zone.at(i, j - 1), /*write=*/false);
      const double nb = zone.at(i - 1, j) + zone.at(i, j - 1);
      c = (1.0 - omega) * c + omega * 0.25 * (nb + std::exp(-c * c));
      itc_trace(&c);
    }
  }
  // Backward wavefront.
  for (int i = n - 1; i >= 0; --i) {
    for (int j = n - 1; j >= 0; --j) {
      double& c = zone.at(i, j);
      itc_trace(&zone.at(i + 1, j), /*write=*/false);
      itc_trace(&zone.at(i, j + 1), /*write=*/false);
      const double nb = zone.at(i + 1, j) + zone.at(i, j + 1);
      c = (1.0 - omega) * c + omega * 0.25 * (nb + std::exp(-c * c));
      itc_trace(&c);
    }
  }
}

void adi_bt_sweep(Zone& zone) {
  const int n = zone.interior();
  // x-direction line sweep with a heavier 5-point body.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double& c = zone.at(i, j);
      itc_trace(&zone.at(i - 1, j), /*write=*/false);
      itc_trace(&zone.at(i + 1, j), /*write=*/false);
      itc_trace(&zone.at(i, j - 1), /*write=*/false);
      itc_trace(&zone.at(i, j + 1), /*write=*/false);
      const double stencil = 0.2 * (zone.at(i - 1, j) + zone.at(i + 1, j) +
                                    zone.at(i, j - 1) + zone.at(i, j + 1) + c);
      c = stencil + 0.01 * std::sin(stencil) + 0.001 * std::exp(-stencil * stencil);
      itc_trace(&c);
    }
  }
  // y-direction line sweep.
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      double& c = zone.at(i, j);
      itc_trace(&zone.at(i - 1, j), /*write=*/false);
      itc_trace(&zone.at(i + 1, j), /*write=*/false);
      itc_trace(&zone.at(i, j - 1), /*write=*/false);
      itc_trace(&zone.at(i, j + 1), /*write=*/false);
      const double stencil = 0.2 * (zone.at(i - 1, j) + zone.at(i + 1, j) +
                                    zone.at(i, j - 1) + zone.at(i, j + 1) + c);
      c = stencil + 0.01 * std::cos(stencil) + 0.001 * std::exp(-stencil * stencil);
      itc_trace(&c);
    }
  }
}

void adi_sp_sweep(Zone& zone) {
  const int n = zone.interior();
  // Lighter scalar line sweeps (SP's factorized form).
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double& c = zone.at(i, j);
      itc_trace(&zone.at(i, j - 1), /*write=*/false);
      itc_trace(&zone.at(i, j + 1), /*write=*/false);
      c = 0.5 * c + 0.25 * (zone.at(i, j - 1) + zone.at(i, j + 1)) +
          0.01 * std::exp(-c);
      itc_trace(&c);
    }
  }
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      double& c = zone.at(i, j);
      itc_trace(&zone.at(i - 1, j), /*write=*/false);
      itc_trace(&zone.at(i + 1, j), /*write=*/false);
      c = 0.5 * c + 0.25 * (zone.at(i - 1, j) + zone.at(i + 1, j)) +
          0.01 * std::exp(-c);
      itc_trace(&c);
    }
  }
}

void sweep_zone(AppKind kind, Zone& zone) {
  switch (kind) {
    case AppKind::kLU: ssor_sweep(zone); break;
    case AppKind::kBT: adi_bt_sweep(zone); break;
    case AppKind::kSP: adi_sp_sweep(zone); break;
  }
}

}  // namespace home::apps
