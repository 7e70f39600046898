package stack

import (
	"fmt"

	"enld/internal/lake"
)

// Accounting sorts a run's reports into the outcome classes every offered
// task lands in exactly one of. Completed counts tasks served where they
// were placed, Degraded of them by the fallback detector; Rerouted tasks
// were served by a shard other than their owner. Lost is what no report
// and no resume skip accounts for: the one outcome the stack must never
// produce.
type Accounting struct {
	Offered, Skipped              int
	Completed, Degraded, Rerouted int
	Shed, Abandoned, DeadLetter   int
	Lost                          int
}

// Account reduces the reports of a run that offered tasks, skipped of them
// by resume.
func Account(reports []lake.Report, offered, skipped int) Accounting {
	a := Accounting{Offered: offered, Skipped: skipped}
	for _, rep := range reports {
		switch {
		case rep.Shed:
			a.Shed++
		case rep.Abandoned:
			a.Abandoned++
		case rep.DeadLettered || rep.Err != nil:
			a.DeadLetter++
		case rep.Rerouted:
			a.Rerouted++
		case rep.Degraded:
			a.Degraded++
			a.Completed++
		default:
			a.Completed++
		}
	}
	a.Lost = offered - skipped - a.Completed - a.Rerouted - a.Shed - a.Abandoned - a.DeadLetter
	return a
}

// String is the accounting line's body.
func (a Accounting) String() string {
	return fmt.Sprintf("offered=%d completed=%d rerouted=%d shed=%d abandoned=%d dead_letter=%d lost=%d",
		a.Offered, a.Completed, a.Rerouted, a.Shed, a.Abandoned, a.DeadLetter, a.Lost)
}
