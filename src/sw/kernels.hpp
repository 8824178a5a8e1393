// The computation kernels of the MPAS shallow-water model, decomposed into
// the paper's basic patterns (Figure 3 / Table I).
//
// Pattern taxonomy used throughout (our reconstruction of Figure 3):
//   A: cell   <- its edges          (divergence, kinetic energy, tend_h, ...)
//   B: cell   <- neighbouring cells (the d2fdx2 thickness Laplacian)
//   C: edge   <- its 2 cells        (h_edge, pressure/KE gradients)
//   D: vertex <- its 3 edges        (relative vorticity / circulation)
//   E: vertex <- its 3 cells        (kite-weighted thickness at vertices)
//   F: edge   <- edgesOnEdge        (tangential velocity reconstruction)
//   G: edge   <- its 2 vertices     (potential vorticity at edges, APVM)
//   H: edge   <- wide neighbourhood (full momentum tendency: edgesOnEdge,
//                                    cells and vertices combined)
//   X: local  (no neighbours)       (RK updates, boundary mask, rotations)
//
// Loop variants (Algorithms 2-4 of the paper):
//   Irregular  — the original Fortran-style traversal: loops over *source*
//                entities and scatters (+=) into shared outputs. Races under
//                threading, so it is only ever run serially; it always
//                processes the whole array (begin/end are ignored) and is
//                the "original code" baseline.
//   Refactored — regularity-aware: loops over *output* entities, gathering
//                from neighbours, with a conditional picking the +/- sign.
//   BranchFree — like Refactored but the sign comes from a precomputed
//                label matrix (edge_sign_on_cell / edge_sign_on_vertex),
//                removing the branch so the loop vectorizes.
// All variants produce identical results bit-for-bit except for the
// Irregular ones, whose different accumulation order can differ by rounding
// (tests pin down both properties).
//
// Every kernel takes an entity range [begin, end) over its OUTPUT space so
// the hybrid runtime can split one pattern across host and accelerator (the
// "adjustable part" of Figure 4(b)).
#pragma once

#include "machine/machine_model.hpp"
#include "sw/fields.hpp"

namespace mpas::sw {

enum class LoopVariant : int { Irregular = 0, Refactored = 1, BranchFree = 2 };

const char* to_string(LoopVariant v);

/// Physical and numerical parameters of the model.
struct SwParams {
  Real gravity = constants::kGravity;
  Real dt = 0;             // time-step size (also used by APVM upwinding)
  Real apvm_factor = 0.5;  // anticipated-potential-vorticity upwinding
  Real nu_del2_u = 0;      // optional del^2 momentum dissipation
  Real nu_del2_h = 0;      // optional del^2 thickness diffusion (d2fdx2)
  bool with_tracer = false;  // advect a conservative passive tracer
};

/// Everything a kernel needs: mesh, fields, parameters, and the
/// Runge-Kutta coefficients the update kernels apply this substep.
struct SwContext {
  const mesh::VoronoiMesh& mesh;
  FieldStore& fields;
  SwParams params;
  Real rk_substep_coeff = 0;  // a_i * dt in provis = state + a_i*dt*tend
  Real rk_accum_coeff = 0;    // b_i * dt in new   += b_i*dt*tend
};

// ---- compute_solve_diagnostics ---------------------------------------------
// Thickness averaged to edges: h_edge = (h(c0)+h(c1))/2.            [C]
void diag_h_edge(const SwContext& ctx, FieldId h_in, Index begin, Index end);

// Kinetic energy at cells: ke = sum 0.25*dc*dv*u^2 / areaCell.      [A]
void diag_ke(const SwContext& ctx, FieldId u_in, Index begin, Index end,
             LoopVariant variant);

// Relative vorticity at vertices: circulation / triangle area.      [D]
void diag_vorticity(const SwContext& ctx, FieldId u_in, Index begin, Index end,
                    LoopVariant variant);

// Velocity divergence at cells.                                     [A]
void diag_divergence(const SwContext& ctx, FieldId u_in, Index begin,
                     Index end, LoopVariant variant);

// Tangential velocity from the TRiSK weights.                       [F]
void diag_v_tangent(const SwContext& ctx, FieldId u_in, Index begin,
                    Index end);

// Kite-weighted thickness at vertices + potential vorticity
// pv_vertex = (f + vorticity)/h_vertex.                             [E]
void diag_h_pv_vertex(const SwContext& ctx, FieldId h_in, Index begin,
                      Index end);

// Potential vorticity averaged back to cells with kite weights.     [H->cell]
void diag_pv_cell(const SwContext& ctx, Index begin, Index end);

// Potential vorticity at edges with APVM upwinding.                 [G]
void diag_pv_edge(const SwContext& ctx, FieldId u_in, Index begin, Index end);

// ---- compute_tend ----------------------------------------------------------
// Thickness tendency: tend_h = -div(h_edge * u).                    [A]
void tend_thickness(const SwContext& ctx, FieldId u_in, Index begin, Index end,
                    LoopVariant variant);

// Momentum tendency: tend_u = qF_perp - grad(g(h+b) + K).           [H/B1]
void tend_momentum(const SwContext& ctx, FieldId h_in, FieldId u_in,
                   Index begin, Index end);

// Optional del^2 thickness diffusion, two stages: the discrete
// Laplacian into D2H [B], then tend_h += nu_h * D2H [X].
void tend_h_laplacian(const SwContext& ctx, FieldId h_in, Index begin,
                      Index end);
void tend_h_add_del2(const SwContext& ctx, Index begin, Index end);

// Optional del^2 momentum dissipation:
// tend_u += nu_u * (grad(divergence) - k x grad(vorticity)).        [C+G]
void tend_u_add_del2(const SwContext& ctx, Index begin, Index end);

// ---- enforce_boundary_edge -------------------------------------------------
// Zero the momentum tendency on the boundary edges in [begin, end),
// visiting only mesh.boundary_edges (none on the full sphere, so a no-op
// there, kept for fidelity with Algorithm 1).                       [X]
void enforce_boundary_edge(const SwContext& ctx, Index begin, Index end);

// ---- compute_next_substep_state ---------------------------------------------
// provis = state + (a_i*dt) * tend.                                 [X]
void next_substep_h(const SwContext& ctx, Index begin, Index end);
void next_substep_u(const SwContext& ctx, Index begin, Index end);

// ---- step setup --------------------------------------------------------------
// provis = state at the start of the step, so every RK stage uniformly
// reads the provisional fields (stage 1 then sees the state values). [X]
void seed_provis_h(const SwContext& ctx, Index begin, Index end);
void seed_provis_u(const SwContext& ctx, Index begin, Index end);

// ---- accumulative_update ---------------------------------------------------
// new = state at the start of the step [X], then new += (b_i*dt)*tend.
void init_accum_h(const SwContext& ctx, Index begin, Index end);
void init_accum_u(const SwContext& ctx, Index begin, Index end);
void accumulate_h(const SwContext& ctx, Index begin, Index end);
void accumulate_u(const SwContext& ctx, Index begin, Index end);
// Commit: state = new (end of the RK loop).                         [X]
void commit_h(const SwContext& ctx, Index begin, Index end);
void commit_u(const SwContext& ctx, Index begin, Index end);

// ---- passive tracer (optional model extension) -------------------------------
// Flux-form conservative advection of a passive tracer: the prognostic is
// the tracer mass per area Q = h*q. New *patterns*, same taxonomy:
//   X: mixing ratio q = Q/h at cells;
//   C: q averaged to edges;
//   A: tend_Q = -div(u * h_edge * q_edge)  (conserves total tracer mass
//      to rounding, same telescoping argument as tend_h);
// plus the usual X update kernels. Added to demonstrate the paper's claim
// that the data-flow diagram easily absorbs future model development.
void tracer_ratio(const SwContext& ctx, FieldId q_mass_in, FieldId h_in,
                  Index begin, Index end);
void tracer_edge_value(const SwContext& ctx, Index begin, Index end);
void tend_tracer(const SwContext& ctx, FieldId u_in, Index begin, Index end,
                 LoopVariant variant);
void next_substep_tracer(const SwContext& ctx, Index begin, Index end);
void seed_provis_tracer(const SwContext& ctx, Index begin, Index end);
void init_accum_tracer(const SwContext& ctx, Index begin, Index end);
void accumulate_tracer(const SwContext& ctx, Index begin, Index end);
void commit_tracer(const SwContext& ctx, Index begin, Index end);

/// Initialize the tracer as a cosine bell of mixing ratio 1 at the center
/// tapering to 0 at angular radius `radius` (Williamson TC1's shape):
/// Q = h * q.
void apply_cosine_bell_tracer(const mesh::VoronoiMesh& mesh,
                              FieldStore& fields, Real center_lon,
                              Real center_lat, Real radius);

/// Total tracer mass (integral of Q) — conserved to rounding.
Real total_tracer_mass(const mesh::VoronoiMesh& mesh,
                       const FieldStore& fields);

// ---- mpas_reconstruct ------------------------------------------------------
// Perot reconstruction of the 3-D velocity vector at cell centers.  [A]
void reconstruct_vector(const SwContext& ctx, FieldId u_in, Index begin,
                        Index end, LoopVariant variant);
// Rotation to zonal/meridional components.                          [X6]
void reconstruct_horizontal(const SwContext& ctx, Index begin, Index end);

// ---- per-entity cost signatures (machine-model inputs) ----------------------
// Counted from the loop bodies above, using the mean connectivity degree
// (6 edges/cell, ~10 edgesOnEdge). `scatter` variants of the reducible
// kernels flag their racy writes for the atomic-penalty model.
namespace cost {
machine::KernelCost h_edge();
machine::KernelCost ke(LoopVariant v);
machine::KernelCost vorticity(LoopVariant v);
machine::KernelCost divergence(LoopVariant v);
machine::KernelCost v_tangent();
machine::KernelCost h_pv_vertex();
machine::KernelCost pv_cell();
machine::KernelCost pv_edge();
machine::KernelCost tend_h(LoopVariant v);
machine::KernelCost tend_u();
machine::KernelCost local_axpy();     // the X update kernels
machine::KernelCost reconstruct(LoopVariant v);
}  // namespace cost

}  // namespace mpas::sw
