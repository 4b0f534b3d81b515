package main

import (
	"sync"

	"mpstream/internal/core"
)

// answerMemo remembers the digest of every locally computed answer. The
// phases of a traced run repeat one seeded sequence, so each question is
// answered locally once.
type answerMemo struct {
	mu      sync.Mutex
	digests map[string]string
}

func newAnswerMemo() *answerMemo { return &answerMemo{digests: map[string]string{}} }

// digest returns core.DigestJSON of compute's answer to the question
// named key, computing it on first use.
func (a *answerMemo) digest(key string, compute func() (any, error)) (string, error) {
	a.mu.Lock()
	d, ok := a.digests[key]
	a.mu.Unlock()
	if ok {
		return d, nil
	}
	v, err := compute()
	if err != nil {
		return "", err
	}
	d = core.DigestJSON(v)
	a.mu.Lock()
	a.digests[key] = d
	a.mu.Unlock()
	return d, nil
}

// parallel calls f(0..n-1) on two goroutines, the host's CPU count.
func parallel(n int, f func(i int)) {
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= n {
					return
				}
				f(k)
			}
		}()
	}
	wg.Wait()
}
