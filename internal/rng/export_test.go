package rng

// Knots returns c's knots for the external tests' frozen formulas.
func Knots(c *EmpiricalCDF) []CDFPoint { return c.points }
