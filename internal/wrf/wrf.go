// Package wrf implements the weather-simulation substrate of the EVEREST
// use cases (paper §II-A): a reduced-physics proxy of the WRF numerical
// model with the structure that matters to the SDK experiments —
//
//   - a 3D advection–diffusion dynamical core over temperature, winds and
//     moisture;
//   - an RRTMG-style radiation step (the module the EVEREST kernel language
//     was designed around, Fig. 3) whose gas-optics lookup dominates a
//     realistic ~30% share of the step cost;
//   - WRFDA-like variational data assimilation (paper: "the ingestion of
//     observational data ... improving the initial condition");
//   - ensemble prediction drivers (§VIII: accelerated WRF enables "an
//     ensemble prediction").
//
// Full WRF is ~1M lines of Fortran and needs HPC resources; this proxy
// preserves the kernel structure, data volumes, and workflow shape (see the
// substitution table in DESIGN.md).
package wrf

import (
	"math"
	"math/rand"

	"everest/internal/tensor"
)

// Config sizes the model grid.
type Config struct {
	NX, NY, NZ int
	// DT is the model time step in seconds; DX the grid spacing in meters.
	DT, DX float64
	// RadiationEvery applies radiation each N steps (WRF-style radiation
	// calling frequency).
	RadiationEvery int
}

// State is the prognostic model state.
type State struct {
	Cfg Config
	T   *tensor.Tensor // temperature (K), shape (NX,NY,NZ)
	U   *tensor.Tensor // zonal wind (m/s)
	V   *tensor.Tensor // meridional wind (m/s)
	Q   *tensor.Tensor // moisture mixing ratio (g/kg)
	// Step counter and accumulated modelled FLOPs per component.
	Steps          int
	DynamicsFlops  float64
	RadiationFlops float64
}

// NewState builds an initial state with a baroclinic-like temperature
// gradient, a zonal jet, and seeded perturbations.
func NewState(cfg Config, seed int64) *State {
	rng := rand.New(rand.NewSource(seed))
	s := &State{
		Cfg: cfg,
		T:   tensor.New(cfg.NX, cfg.NY, cfg.NZ),
		U:   tensor.New(cfg.NX, cfg.NY, cfg.NZ),
		V:   tensor.New(cfg.NX, cfg.NY, cfg.NZ),
		Q:   tensor.New(cfg.NX, cfg.NY, cfg.NZ),
	}
	for i := 0; i < cfg.NX; i++ {
		for j := 0; j < cfg.NY; j++ {
			for k := 0; k < cfg.NZ; k++ {
				lat := float64(j) / float64(cfg.NY-1) // 0..1 south->north
				height := float64(k) / float64(cfg.NZ)
				base := 300 - 30*lat - 50*height
				s.T.Set(base+rng.NormFloat64()*0.3, i, j, k)
				s.U.Set(8*math.Sin(math.Pi*lat)+rng.NormFloat64()*0.3, i, j, k)
				s.V.Set(rng.NormFloat64()*0.3, i, j, k)
				s.Q.Set(math.Max(0, 8*(1-height)+rng.NormFloat64()*0.2), i, j, k)
			}
		}
	}
	return s
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	return &State{
		Cfg: s.Cfg,
		T:   s.T.Clone(), U: s.U.Clone(), V: s.V.Clone(), Q: s.Q.Clone(),
		Steps: s.Steps, DynamicsFlops: s.DynamicsFlops, RadiationFlops: s.RadiationFlops,
	}
}

// Step advances the model one time step: upwind advection of T and Q by the
// winds, horizontal diffusion, then (every RadiationEvery steps) the RRTMG
// proxy heating.
func (s *State) Step(rad *Radiation) {
	cfg := s.Cfg
	cn := cfg.DT / cfg.DX // Courant number scale
	tNew := s.T.Clone()
	qNew := s.Q.Clone()

	idx := func(i, n int) int { return ((i % n) + n) % n } // periodic
	for i := 0; i < cfg.NX; i++ {
		for j := 0; j < cfg.NY; j++ {
			for k := 0; k < cfg.NZ; k++ {
				u := s.U.At(i, j, k)
				v := s.V.At(i, j, k)
				// Upwind advection.
				var dTdx, dTdy, dQdx, dQdy float64
				if u >= 0 {
					dTdx = s.T.At(i, j, k) - s.T.At(idx(i-1, cfg.NX), j, k)
					dQdx = s.Q.At(i, j, k) - s.Q.At(idx(i-1, cfg.NX), j, k)
				} else {
					dTdx = s.T.At(idx(i+1, cfg.NX), j, k) - s.T.At(i, j, k)
					dQdx = s.Q.At(idx(i+1, cfg.NX), j, k) - s.Q.At(i, j, k)
				}
				if v >= 0 {
					dTdy = s.T.At(i, j, k) - s.T.At(i, idx(j-1, cfg.NY), k)
					dQdy = s.Q.At(i, j, k) - s.Q.At(i, idx(j-1, cfg.NY), k)
				} else {
					dTdy = s.T.At(i, idx(j+1, cfg.NY), k) - s.T.At(i, j, k)
					dQdy = s.Q.At(i, idx(j+1, cfg.NY), k) - s.Q.At(i, j, k)
				}
				adv := -cn * (u*dTdx + v*dTdy)
				advQ := -cn * (u*dQdx + v*dQdy)
				// Horizontal diffusion (explicit, small coefficient).
				lap := s.T.At(idx(i+1, cfg.NX), j, k) + s.T.At(idx(i-1, cfg.NX), j, k) +
					s.T.At(i, idx(j+1, cfg.NY), k) + s.T.At(i, idx(j-1, cfg.NY), k) -
					4*s.T.At(i, j, k)
				tNew.Set(s.T.At(i, j, k)+adv+0.02*lap, i, j, k)
				qNew.Set(math.Max(0, s.Q.At(i, j, k)+advQ), i, j, k)
			}
		}
	}
	s.T = tNew
	s.Q = qNew
	// Accounted at 1500 flops per cell: the proxy's upwind update stands in
	// for WRF's full non-radiation suite (dynamics, microphysics, PBL,
	// surface), which is what the paper's "RRTMG is ~30% of cycles" claim
	// is measured against.
	s.DynamicsFlops += 1500 * float64(cfg.NX*cfg.NY*cfg.NZ)

	if rad != nil && s.Steps%maxi(1, cfg.RadiationEvery) == 0 {
		flops := rad.Apply(s)
		s.RadiationFlops += flops
	}
	s.Steps++
}

// Run advances n steps.
func (s *State) Run(rad *Radiation, n int) {
	for i := 0; i < n; i++ {
		s.Step(rad)
	}
}

// RadiationFraction returns the fraction of total modelled FLOPs spent in
// radiation — the paper reports ~30% for RRTMG inside WRF.
func (s *State) RadiationFraction() float64 {
	total := s.DynamicsFlops + s.RadiationFlops
	if total == 0 {
		return 0
	}
	return s.RadiationFlops / total
}

// RMSE returns the temperature RMSE between two states.
func RMSE(a, b *State) float64 { return tensor.RMSE(a.T, b.T) }

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
