package attribution

// ReportGlobalSensitivity returns Δ(ρ) for a report produced by a
// value-distributing attribution function with per-report value cap amax
// (= min(conversion value, querier cap)), output dimension m and epoch
// window length k, following Thm. 18: Amax when m = 1 or k = 1; 2·Amax when
// m ≥ 2, k ≥ 2 and the logic can shift credit between coordinates; Amax
// otherwise.
func ReportGlobalSensitivity(logic Logic, amax float64, m, k int) float64 {
	if amax < 0 {
		panic("attribution: negative value cap")
	}
	if m <= 0 || k <= 0 {
		panic("attribution: non-positive dimensions")
	}
	if m == 1 || k == 1 {
		return amax
	}
	if logic.ShiftsCredit() {
		return 2 * amax
	}
	return amax
}

// MaxEpochRemovalSensitivity returns Δmax(ρ) (Thm. 15): the largest L1
// change from emptying *any subset* of epochs. For the one-hot histogram
// functions of Thm. 18 this coincides with the global sensitivity, which is
// what the bias-measurement bound uses.
func MaxEpochRemovalSensitivity(logic Logic, amax float64, m, k int) float64 {
	return ReportGlobalSensitivity(logic, amax, m, k)
}
