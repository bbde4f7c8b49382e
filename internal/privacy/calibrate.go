package privacy

import "math"

// Calibration holds the querier-side accuracy target from the paper's
// methodology (§6.1): the querier picks ε so that a summation query over a
// batch of B reports stays within a relative error α of the true value with
// probability 1−β.
type Calibration struct {
	// Alpha is the target relative error (0.05 in the paper).
	Alpha float64
	// Beta is the failure probability (0.01 in the paper).
	Beta float64
}

// DefaultCalibration is the paper's setting: 5% error at 99% confidence,
// corresponding to roughly 0.02 RMSRE.
var DefaultCalibration = Calibration{Alpha: 0.05, Beta: 0.01}

// Epsilon implements the paper's formula ε = Δ·ln(1/β)/(α·B·c̃), where Δ is
// the query's global sensitivity (the maximum conversion value), B the batch
// size and avgValue (c̃) the querier's rough estimate of the average
// conversion value. It panics on non-positive inputs.
func (c Calibration) Epsilon(delta float64, batch int, avgValue float64) float64 {
	if delta <= 0 || batch <= 0 || avgValue <= 0 {
		panic("privacy: calibration requires positive delta, batch and avgValue")
	}
	if c.Alpha <= 0 || c.Beta <= 0 || c.Beta >= 1 {
		panic("privacy: invalid calibration parameters")
	}
	return delta * math.Log(1/c.Beta) / (c.Alpha * float64(batch) * avgValue)
}
