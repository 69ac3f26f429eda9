package anomaly

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// ParamKind distinguishes hyperparameter domains.
type ParamKind int

// Parameter kinds.
const (
	// ParamFloat is a continuous parameter in [Lo, Hi].
	ParamFloat ParamKind = iota
	// ParamInt is an integer parameter in [Lo, Hi].
	ParamInt
	// ParamCat is a categorical parameter over Cats.
	ParamCat
)

// Param declares one dimension of the search space.
type Param struct {
	Name string
	Kind ParamKind
	Lo   float64
	Hi   float64
	Cats []string
	Log  bool // sample on a log scale (ParamFloat)
}

// Assignment is one sampled point of the search space. Numeric values live
// in Nums, categorical ones in Cats.
type Assignment struct {
	Nums map[string]float64
	Cats map[string]string
}

func newAssignment() Assignment {
	return Assignment{Nums: make(map[string]float64), Cats: make(map[string]string)}
}

// Trial records one evaluated assignment and its loss (lower is better).
type Trial struct {
	Params Assignment
	Loss   float64
}

// TPE is the Tree-structured Parzen Estimator sampler used by Optuna (paper
// ref [1]): after a startup phase of random trials, it splits observations
// at the gamma quantile into good/bad sets, models each with Parzen density
// estimators ℓ(x) and g(x), and proposes the candidate maximizing ℓ/g.
type TPE struct {
	Space      []Param
	Gamma      float64 // quantile split, default 0.25
	Startup    int     // random trials before modelling, default 10
	Candidates int     // EI candidates per suggestion, default 24
	rng        *rand.Rand
	trials     []Trial
}

// NewTPE builds a sampler over the space with a deterministic seed.
func NewTPE(space []Param, seed int64) (*TPE, error) {
	if len(space) == 0 {
		return nil, fmt.Errorf("anomaly: empty search space")
	}
	for _, p := range space {
		switch p.Kind {
		case ParamCat:
			if len(p.Cats) == 0 {
				return nil, fmt.Errorf("anomaly: categorical %q has no categories", p.Name)
			}
		default:
			if p.Hi < p.Lo {
				return nil, fmt.Errorf("anomaly: param %q has inverted range", p.Name)
			}
			if p.Log && p.Lo <= 0 {
				return nil, fmt.Errorf("anomaly: log-scale param %q needs positive bounds", p.Name)
			}
		}
	}
	return &TPE{
		Space: space, Gamma: 0.25, Startup: 10, Candidates: 24,
		rng: rand.New(rand.NewSource(seed)),
	}, nil
}

// Best returns the best (lowest loss) trial so far.
func (t *TPE) Best() (Trial, bool) {
	if len(t.trials) == 0 {
		return Trial{}, false
	}
	best := t.trials[0]
	for _, tr := range t.trials[1:] {
		if tr.Loss < best.Loss {
			best = tr
		}
	}
	return best, true
}

// Suggest proposes the next assignment to evaluate.
func (t *TPE) Suggest() Assignment {
	if len(t.trials) < t.Startup {
		return t.sampleRandom()
	}
	good, bad := t.split()
	bestScore := math.Inf(-1)
	var best Assignment
	for c := 0; c < t.Candidates; c++ {
		cand := t.sampleFrom(good)
		score := t.logDensity(cand, good) - t.logDensity(cand, bad)
		if score > bestScore {
			bestScore = score
			best = cand
		}
	}
	return best
}

// Observe records the loss of an evaluated assignment.
func (t *TPE) Observe(a Assignment, loss float64) {
	t.trials = append(t.trials, Trial{Params: a, Loss: loss})
}

func (t *TPE) split() (good, bad []Trial) {
	sorted := append([]Trial(nil), t.trials...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Loss < sorted[j].Loss })
	nGood := int(math.Ceil(t.Gamma * float64(len(sorted))))
	if nGood < 1 {
		nGood = 1
	}
	if nGood >= len(sorted) {
		nGood = len(sorted) - 1
	}
	return sorted[:nGood], sorted[nGood:]
}

func (t *TPE) sampleRandom() Assignment {
	a := newAssignment()
	for _, p := range t.Space {
		switch p.Kind {
		case ParamCat:
			a.Cats[p.Name] = p.Cats[t.rng.Intn(len(p.Cats))]
		case ParamInt:
			a.Nums[p.Name] = math.Floor(p.Lo + t.rng.Float64()*(p.Hi-p.Lo+1))
			if a.Nums[p.Name] > p.Hi {
				a.Nums[p.Name] = p.Hi
			}
		default:
			if p.Log {
				a.Nums[p.Name] = math.Exp(math.Log(p.Lo) + t.rng.Float64()*(math.Log(p.Hi)-math.Log(p.Lo)))
			} else {
				a.Nums[p.Name] = p.Lo + t.rng.Float64()*(p.Hi-p.Lo)
			}
		}
	}
	return a
}

// sampleFrom draws an assignment from the Parzen mixture of a trial set:
// pick a random kernel (trial) per parameter and perturb.
func (t *TPE) sampleFrom(set []Trial) Assignment {
	a := newAssignment()
	for _, p := range t.Space {
		pick := set[t.rng.Intn(len(set))]
		switch p.Kind {
		case ParamCat:
			// Mix the empirical distribution with a uniform prior.
			if t.rng.Float64() < 0.8 {
				a.Cats[p.Name] = pick.Params.Cats[p.Name]
			} else {
				a.Cats[p.Name] = p.Cats[t.rng.Intn(len(p.Cats))]
			}
		default:
			width := t.bandwidth(p)
			v := pick.Params.Nums[p.Name] + t.rng.NormFloat64()*width
			v = clamp(v, p.Lo, p.Hi)
			if p.Kind == ParamInt {
				v = math.Round(v)
			}
			a.Nums[p.Name] = v
		}
	}
	return a
}

func (t *TPE) bandwidth(p Param) float64 {
	span := p.Hi - p.Lo
	if span <= 0 {
		return 1
	}
	return span / 5
}

// logDensity evaluates the Parzen mixture log-density of an assignment
// under a trial set (diagonal product over parameters).
func (t *TPE) logDensity(a Assignment, set []Trial) float64 {
	total := 0.0
	for _, p := range t.Space {
		switch p.Kind {
		case ParamCat:
			count := 1.0 // Laplace smoothing
			for _, tr := range set {
				if tr.Params.Cats[p.Name] == a.Cats[p.Name] {
					count++
				}
			}
			total += math.Log(count / (float64(len(set)) + float64(len(p.Cats))))
		default:
			width := t.bandwidth(p)
			mix := 0.0
			for _, tr := range set {
				d := (a.Nums[p.Name] - tr.Params.Nums[p.Name]) / width
				mix += math.Exp(-0.5*d*d) / width
			}
			total += math.Log(mix/float64(len(set)) + 1e-300)
		}
	}
	return total
}

// RandomSearch is the E8 baseline: uniform sampling with the same API.
type RandomSearch struct {
	inner *TPE
}

// NewRandomSearch builds a random sampler.
func NewRandomSearch(space []Param, seed int64) (*RandomSearch, error) {
	t, err := NewTPE(space, seed)
	if err != nil {
		return nil, err
	}
	t.Startup = math.MaxInt32 // never leave the random phase
	return &RandomSearch{inner: t}, nil
}

// Suggest proposes a uniform random assignment.
func (r *RandomSearch) Suggest() Assignment { return r.inner.Suggest() }

// Observe records a trial.
func (r *RandomSearch) Observe(a Assignment, loss float64) { r.inner.Observe(a, loss) }

// Best returns the best trial so far.
func (r *RandomSearch) Best() (Trial, bool) { return r.inner.Best() }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
