#include "replay.hpp"

#include <algorithm>
#include <exception>
#include <vector>

#include "core/alignment.hpp"
#include "core/composite_pulse.hpp"
#include "core/delay_noise.hpp"
#include "core/holding_resistance.hpp"
#include "core/superposition.hpp"
#include "waveform/pulse.hpp"

namespace nb {

namespace {

using dn::AlignmentResult;
using dn::CompositeAlignment;
using dn::DelayNoiseOptions;
using dn::Pwl;
using dn::SuperpositionEngine;

/// One fix-point pass's composite and alignment under `holding_r`,
/// mirroring analyze_delay_noise's compose/choose steps for the predicted
/// (8-point table) method on an unpruned net.
struct PassState {
  CompositeAlignment composite;
  AlignmentResult alignment;
};

class Replayer {
 public:
  Replayer(const SuperpositionEngine& eng, const DelayNoiseOptions& opts,
           Spans& spans, std::uint64_t id)
      : eng_(eng), opts_(opts), spans_(spans), id_(id) {}

  PassState pass(const Pwl& noiseless_sink, double holding_r) {
    PassState s;
    {
      // The composite reads each aggressor's noise from the engine's
      // per-(aggressor, holding R) cache; filling it first puts the
      // linear sims in their own span.
      Spans::Scope span(spans_, "sim", "aggressor_noise", id_);
      for (std::size_t k = 0; k < eng_.net().aggressors.size(); ++k)
        eng_.aggressor_noise(static_cast<int>(k), holding_r);
    }
    {
      Spans::Scope span(spans_, "core", "align_aggressor_peaks", id_);
      s.composite = dn::align_aggressor_peaks(eng_, holding_r, nullptr);
    }
    s.alignment = choose_predicted(noiseless_sink, s.composite.at_sink);
    return s;
  }

  double receiver(const Pwl& vin) {
    Spans::Scope span(spans_, "core", "evaluate_receiver", id_);
    const dn::VictimDesc& v = eng_.net().victim;
    return dn::evaluate_receiver(v.receiver, vin, v.receiver_load,
                                 v.output_rising, opts_.search.dt,
                                 opts_.search.lte_tol, nullptr,
                                 opts_.search.stale_jacobian_iters)
        .t_out_50;
  }

 private:
  AlignmentResult choose_predicted(const Pwl& noiseless_sink,
                                   const Pwl& composite) {
    const dn::GateParams& rcv = eng_.net().victim.receiver;
    const bool rising = eng_.net().victim.output_rising;
    dn::PulseParams p;
    double t_pred = 0.0;
    {
      Spans::Scope span(spans_, "core", "predict_peak_time", id_);
      p = dn::measure_pulse(composite);
      t_pred = opts_.table->predict_peak_time(noiseless_sink,
                                              dn::measure_pulse(composite));
    }
    double t_mid =
        noiseless_sink.crossing(0.5 * rcv.vdd, rising).value_or(t_pred);
    if (opts_.search.has_window()) {
      t_pred = std::clamp(t_pred, opts_.search.window_min,
                          opts_.search.window_max);
      t_mid = std::clamp(t_mid, opts_.search.window_min,
                         opts_.search.window_max);
    }
    t_pred = opts_.search.domain.clamp(t_pred);
    t_mid = opts_.search.domain.clamp(t_mid);
    AlignmentResult best;
    best.t_out_50 = -1e300;
    for (const double t_peak : {t_pred, t_mid}) {
      AlignmentResult r;
      r.t_peak = t_peak;
      r.shift = t_peak - p.t_peak;
      r.align_voltage = noiseless_sink.at(t_peak);
      r.t_out_50 = receiver(noiseless_sink + composite.shifted(r.shift));
      if (r.t_out_50 > best.t_out_50) best = r;
    }
    return best;
  }

  const SuperpositionEngine& eng_;
  const DelayNoiseOptions& opts_;
  Spans& spans_;
  std::uint64_t id_;
};

bool has_prunable_constraints(const dn::CoupledNet& net) {
  if (!net.exclusions.empty()) return true;
  for (const auto& a : net.aggressors)
    if (a.has_window()) return true;
  return false;
}

}  // namespace

dn::StatusOr<ReplayResult> replay_flow(const dn::NoiseAnalyzer& analyzer,
                                       const dn::CoupledNet& net, Spans& spans,
                                       std::uint64_t id) {
  const dn::AnalyzerConfig& cfg = analyzer.config();
  if (!cfg.use_prediction_tables || has_prunable_constraints(net) ||
      net.aggressors.empty())
    return dn::Status::FailedPrecondition(
        "replay mirrors only the predicted-table flow on unpruned nets");
  try {
    net.validate();
    DelayNoiseOptions opts = cfg.analysis;
    dn::SuperpositionOptions eng_opts = cfg.engine;
    eng_opts.solver.allow_dense_fallback = opts.degrade.sparse_to_dense;
    eng_opts.mor_fallback = opts.degrade.mor_to_unreduced;
    std::optional<SuperpositionEngine> eng;
    {
      Spans::Scope span(spans, "ceff", "SuperpositionEngine", id);
      eng.emplace(net, eng_opts);
    }
    auto table = analyzer.cache()->try_table_for(net.victim.receiver,
                                                 net.victim.output_rising);
    if (!table.ok()) return table.status();
    opts.method = dn::AlignmentMethod::Predicted;
    opts.table = *table;

    ReplayResult out;
    Replayer rp(*eng, opts, spans, id);
    const double rth = eng->victim_model().model.rth;
    double holding_r = rth;
    Pwl noiseless_sink;
    {
      Spans::Scope span(spans, "sim", "victim_transition", id);
      noiseless_sink = eng->victim_transition().at_sink;
    }

    PassState st;
    const int iters = std::max(opts.model_alignment_iterations, 1);
    for (int pass = 0; pass < iters; ++pass) {
      st = rp.pass(noiseless_sink, holding_r);
      if (!opts.use_transient_holding) break;
      std::vector<double> shifts = st.composite.shifts;
      for (double& s : shifts) s += st.alignment.shift;
      dn::RtrResult rtr;
      try {
        Spans::Scope span(spans, "core", "compute_rtr", id);
        rtr = dn::compute_rtr(*eng, shifts, opts.rtr, nullptr);
      } catch (const dn::DeadlineError&) {
        throw;
      } catch (const std::exception&) {
        if (!opts.degrade.rtr_to_rth) throw;
        holding_r = rth;
        if (pass > 0) st = rp.pass(noiseless_sink, holding_r);
        break;
      }
      out.rtr_iterations += std::max(rtr.iterations, 0);
      holding_r = rtr.rtr;
      if (pass + 1 == iters) st = rp.pass(noiseless_sink, holding_r);
    }
    out.nominal_t50 = rp.receiver(noiseless_sink);
    out.noisy_t50 = st.alignment.t_out_50;
    return out;
  } catch (const std::exception& e) {
    return dn::status_from_exception(e);
  }
}

}  // namespace nb
