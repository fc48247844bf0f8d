package service

import (
	"slices"
	"time"
)

// priorityQueue is the queued jobs in arrival order. Not safe for
// concurrent use; the Service serialises access under its mutex and
// parks idle workers on a condition variable. The queue is bounded by
// admission (64 jobs by default), so a pick is one scan.
//
// Order is a pure function of (class, deadline, arrival index): strict
// class precedence (interactive before normal before batch); within a
// class, jobs with deadlines run earliest-deadline-first ahead of jobs
// without one, and ties break on arrival order. Wall-clock enters only
// through the aging knob, which is off by default: once the
// longest-waiting job (the slice head, since pushes arrive in order) has
// waited at least that long, it runs next, so neither a trickle of
// higher-class traffic nor a steady stream of deadline-bearing siblings
// can starve a job forever. Escalating a queued job's class or
// tightening its deadline is an in-place field update: the job keeps its
// place in arrival order, and with it its age.
type priorityQueue []*job

// push appends a newly queued job.
func (q *priorityQueue) push(j *job) {
	*q = append(*q, j)
}

// remove drops a job still sitting in the queue (cancellation); a job
// not in the queue is ignored.
func (q *priorityQueue) remove(j *job) {
	if i := slices.Index(*q, j); i >= 0 {
		*q = slices.Delete(*q, i, i+1)
	}
}

// classDepth reports one class's backlog.
func (q priorityQueue) classDepth(c Class) int {
	n := 0
	for _, j := range q {
		if j.class == c {
			n++
		}
	}
	return n
}

// pick removes and returns the next job to run, or nil when the queue is
// empty: the precedence winner, unless aging > 0 and the longest-waiting
// job has waited at least that long. aged reports whether the aging rule
// changed the outcome (it is a metric).
func (q *priorityQueue) pick(now time.Time, aging time.Duration) (j *job, aged bool) {
	if len(*q) == 0 {
		return nil, false
	}
	win := 0
	for i, c := range *q {
		if outranks(c, (*q)[win]) {
			win = i
		}
	}
	if aging > 0 && now.Sub((*q)[0].submitted) >= aging {
		win, aged = 0, win != 0
	}
	j = (*q)[win]
	*q = slices.Delete(*q, win, win+1)
	return j, aged
}

// outranks reports whether a runs before b under precedence: higher
// class first, then deadline-bearing before deadline-free with the
// earlier deadline winning, then earlier arrival.
func outranks(a, b *job) bool {
	if a.class != b.class {
		return a.class > b.class
	}
	da, db := !a.deadline.IsZero(), !b.deadline.IsZero()
	switch {
	case da && db:
		if !a.deadline.Equal(b.deadline) {
			return a.deadline.Before(b.deadline)
		}
	case da != db:
		return da // a deadline outranks no deadline
	}
	return a.arrival < b.arrival
}
