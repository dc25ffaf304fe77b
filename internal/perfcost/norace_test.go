//go:build !race

package perfcost

const raceEnabled = false
