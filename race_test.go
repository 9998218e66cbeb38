//go:build race

package hotgen

func init() { raceEnabled = true }
