package service

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// refPick is the scheduling contract written out by brute force: the
// precedence winner is the job no other queued job outranks (higher
// class first; within a class deadline-bearing jobs before deadline-free
// ones, earliest deadline first; then arrival), and when aging is on and
// the longest-waiting job has waited at least aging, that job runs
// instead. aged reports that the longest-waiting job was not the winner.
func refPick(queued []*job, now time.Time, aging time.Duration) (*job, bool) {
	if len(queued) == 0 {
		return nil, false
	}
	outranks := func(a, b *job) bool {
		if a.class != b.class {
			return a.class > b.class
		}
		if a.deadline.IsZero() != b.deadline.IsZero() {
			return !a.deadline.IsZero()
		}
		if !a.deadline.Equal(b.deadline) {
			return a.deadline.Before(b.deadline)
		}
		return a.arrival < b.arrival
	}
	var winner, oldest *job
	for _, j := range queued {
		beaten := false
		for _, k := range queued {
			if k != j && outranks(k, j) {
				beaten = true
			}
		}
		if !beaten {
			winner = j
		}
		if oldest == nil || j.submitted.Before(oldest.submitted) {
			oldest = j
		}
	}
	if aging > 0 && now.Sub(oldest.submitted) >= aging {
		return oldest, oldest != winner
	}
	return winner, false
}

// TestQueueMatchesReference drives the queue through seeded random
// push, pick and cancel sequences (random classes, optional deadlines
// drawn from a small set so ties happen, strictly increasing submit
// times on a 250 ms grid so waits land exactly on the aging threshold,
// aging off and on) and checks every pick against refPick.
func TestQueueMatchesReference(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	for seed := uint64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		aging := []time.Duration{0, 2 * time.Second, 10 * time.Second}[seed%3]
		var pq priorityQueue
		var ref []*job
		now := base
		var arrival uint64
		check := func(step int) {
			want, wantAged := refPick(ref, now, aging)
			got, gotAged := pq.pick(now, aging)
			if got != want || gotAged != wantAged {
				t.Fatalf("seed %d step %d (aging %v): pick = %s aged=%v, want %s aged=%v",
					seed, step, aging, describeJob(got), gotAged, describeJob(want), wantAged)
			}
			if want != nil {
				ref = slices.DeleteFunc(ref, func(j *job) bool { return j == want })
			}
		}
		for step := 0; step < 200; step++ {
			now = now.Add(time.Duration(1+rng.IntN(6)) * 250 * time.Millisecond)
			switch op := rng.IntN(10); {
			case op < 5:
				arrival++
				j := &job{class: Class(rng.IntN(int(numClasses))), arrival: arrival, submitted: now}
				if rng.IntN(2) == 0 {
					j.deadline = base.Add(time.Duration(rng.IntN(8)) * time.Minute)
				}
				pq.push(j)
				ref = append(ref, j)
			case op < 8:
				check(step)
			case len(ref) > 0:
				victim := ref[rng.IntN(len(ref))]
				pq.remove(victim)
				ref = slices.DeleteFunc(ref, func(j *job) bool { return j == victim })
			}
		}
		for step := 200; len(ref) > 0; step++ {
			now = now.Add(time.Second)
			check(step)
		}
		if j, _ := pq.pick(now, aging); j != nil {
			t.Fatalf("seed %d: drained queue still yields %s", seed, describeJob(j))
		}
	}
}

func describeJob(j *job) string {
	if j == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s job, arrival %d, deadline %v", j.class, j.arrival, j.deadline)
}
