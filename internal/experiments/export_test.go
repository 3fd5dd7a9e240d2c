package experiments

import (
	"maps"
	"sync"
	"testing"
)

// popCounter counts the issue orders idealSchedules pops, by
// "benchmark/priority", through the orderPopped hook.
type popCounter struct {
	mu sync.Mutex
	n  map[string]int
}

// countPops installs a popCounter as the orderPopped hook until the test
// ends.
func countPops(t *testing.T) *popCounter {
	c := &popCounter{n: map[string]int{}}
	orderPopped = func(bench, pri string) {
		c.mu.Lock()
		c.n[bench+"/"+pri]++
		c.mu.Unlock()
	}
	t.Cleanup(func() { orderPopped = nil })
	return c
}

// take returns the pops counted since the last take and resets them.
func (c *popCounter) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := maps.Clone(c.n)
	clear(c.n)
	return n
}
