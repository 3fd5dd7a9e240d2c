//go:build race

package machine_test

func init() { raceEnabled = true }
