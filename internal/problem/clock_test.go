package problem

import (
	"testing"
	"time"
)

func TestClockUnlimited(t *testing.T) {
	c := StartClock(0) // zero budget = unlimited
	if c.Expired() {
		t.Fatal("unlimited clock expired")
	}
	if c.Elapsed() < 0 {
		t.Fatal("negative elapsed")
	}
}

func TestClockExpired(t *testing.T) {
	c := StartClock(time.Nanosecond)
	time.Sleep(time.Millisecond)
	if !c.Expired() {
		t.Fatal("1ns clock not expired after 1ms")
	}
	if c.Elapsed() <= 0 {
		t.Fatal("elapsed not positive after 1ms")
	}
}

func TestClockActiveBudget(t *testing.T) {
	c := StartClock(time.Hour)
	if c.Expired() {
		t.Fatal("fresh 1h clock expired")
	}
}
