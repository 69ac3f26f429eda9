package anomaly

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"everest/internal/tensor"
)

// Sampler is the common interface of TPE and RandomSearch.
type Sampler interface {
	Suggest() Assignment
	Observe(a Assignment, loss float64)
	Best() (Trial, bool)
}

// DetectorSpace returns the model-selection search space of the §VII node:
// the detector family plus its hyperparameters.
func DetectorSpace() []Param {
	return []Param{
		{Name: "detector", Kind: ParamCat, Cats: []string{"zscore", "iqr", "mahalanobis", "iforest", "lof"}},
		{Name: "iqr_k", Kind: ParamFloat, Lo: 0.5, Hi: 4.0},
		{Name: "if_trees", Kind: ParamInt, Lo: 20, Hi: 200},
		{Name: "lof_k", Kind: ParamInt, Lo: 3, Hi: 40},
		{Name: "ridge", Kind: ParamFloat, Lo: 1e-8, Hi: 1e-2, Log: true},
	}
}

// BuildDetector instantiates the detector encoded by an assignment.
func BuildDetector(a Assignment) (Detector, error) {
	switch a.Cats["detector"] {
	case "zscore":
		return &ZScore{}, nil
	case "iqr":
		return &IQR{K: a.Nums["iqr_k"]}, nil
	case "mahalanobis":
		return &Mahalanobis{Ridge: a.Nums["ridge"]}, nil
	case "iforest":
		return &IsolationForest{Trees: int(a.Nums["if_trees"]), Seed: 7}, nil
	case "lof":
		return &LOF{K: int(a.Nums["lof_k"])}, nil
	default:
		return nil, fmt.Errorf("anomaly: unknown detector %q", a.Cats["detector"])
	}
}

// EvaluateF1 fits the detector on train, scores the validation set, flags
// the top `contamination` fraction, and returns the F1 score against the
// labels.
func EvaluateF1(d Detector, train, val *tensor.Tensor, labels []bool, contamination float64) (float64, error) {
	if err := d.Fit(train); err != nil {
		return 0, err
	}
	rows := val.Shape()[0]
	if rows != len(labels) {
		return 0, fmt.Errorf("anomaly: %d validation rows but %d labels", rows, len(labels))
	}
	scores := make([]float64, rows)
	point := make([]float64, val.Shape()[1])
	for i := 0; i < rows; i++ {
		for j := range point {
			point[j] = val.At(i, j)
		}
		s, err := d.Score(point)
		if err != nil {
			return 0, err
		}
		scores[i] = s
	}
	nFlag := int(math.Round(contamination * float64(rows)))
	if nFlag < 1 {
		nFlag = 1
	}
	idx := argsort(scores)
	flagged := make([]bool, rows)
	for k := 0; k < nFlag; k++ {
		flagged[idx[rows-1-k]] = true
	}
	tp, fp, fn := 0, 0, 0
	for i := range labels {
		switch {
		case flagged[i] && labels[i]:
			tp++
		case flagged[i] && !labels[i]:
			fp++
		case !flagged[i] && labels[i]:
			fn++
		}
	}
	if tp == 0 {
		return 0, nil
	}
	prec := float64(tp) / float64(tp+fp)
	rec := float64(tp) / float64(tp+fn)
	return 2 * prec * rec / (prec + rec), nil
}

// SelectionResult is the output of the model-selection node.
type SelectionResult struct {
	Best     Assignment
	BestF1   float64
	Trials   int
	Detector Detector
}

// SelectModel is the §VII model-selection node: it spends `budget` trials
// of the sampler searching for the detector+hyperparameters maximizing F1
// on the validation split, then returns the best model fitted on train.
func SelectModel(train, val *tensor.Tensor, labels []bool, contamination float64, budget int, s Sampler) (*SelectionResult, error) {
	if budget < 1 {
		return nil, fmt.Errorf("anomaly: need a positive trial budget")
	}
	for i := 0; i < budget; i++ {
		a := s.Suggest()
		d, err := BuildDetector(a)
		if err != nil {
			s.Observe(a, 1)
			continue
		}
		f1, err := EvaluateF1(d, train, val, labels, contamination)
		if err != nil {
			s.Observe(a, 1)
			continue
		}
		s.Observe(a, 1-f1) // loss
	}
	best, ok := s.Best()
	if !ok {
		return nil, fmt.Errorf("anomaly: no successful trials")
	}
	d, err := BuildDetector(best.Params)
	if err != nil {
		return nil, err
	}
	if err := d.Fit(train); err != nil {
		return nil, err
	}
	return &SelectionResult{
		Best: best.Params, BestF1: 1 - best.Loss, Trials: budget, Detector: d,
	}, nil
}

// Report is the detection node's JSON output: "a JSON file containing the
// indexes of data points that are considered anomalous".
type Report struct {
	Anomalies []int     `json:"anomalies"`
	Threshold float64   `json:"threshold"`
	Scores    []float64 `json:"scores,omitempty"`
}

// JSON renders the report.
func (r Report) JSON() (string, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// DetectionNode runs a fitted detector over incoming data and continuously
// updates the model with current data (§VII).
type DetectionNode struct {
	Detector  Detector
	Threshold float64
	// WindowSize bounds the sliding window used for model updates.
	WindowSize int
	window     []*tensor.Tensor
}

// CalibrateThreshold sets the detection threshold at the (1-contamination)
// quantile of the training scores.
func (n *DetectionNode) CalibrateThreshold(train *tensor.Tensor, contamination float64) error {
	rows := train.Shape()[0]
	scores := make([]float64, rows)
	point := make([]float64, train.Shape()[1])
	for i := 0; i < rows; i++ {
		for j := range point {
			point[j] = train.At(i, j)
		}
		s, err := n.Detector.Score(point)
		if err != nil {
			return err
		}
		scores[i] = s
	}
	sort.Float64s(scores)
	n.Threshold = quantile(scores, 1-contamination)
	return nil
}

// Detect scores a batch and returns the report.
func (n *DetectionNode) Detect(data *tensor.Tensor) (Report, error) {
	rows, cols, err := checkMatrix(data)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Threshold: n.Threshold, Scores: make([]float64, rows)}
	point := make([]float64, cols)
	for i := 0; i < rows; i++ {
		for j := range point {
			point[j] = data.At(i, j)
		}
		s, err := n.Detector.Score(point)
		if err != nil {
			return Report{}, err
		}
		rep.Scores[i] = s
		if s > n.Threshold {
			rep.Anomalies = append(rep.Anomalies, i)
		}
	}
	return rep, nil
}
