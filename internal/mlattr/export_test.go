package mlattr

// Predict returns the model's conversion probability for features x.
func (t *Trainer) Predict(x []float64) float64 {
	return sigmoid(dot(t.weights, x))
}
