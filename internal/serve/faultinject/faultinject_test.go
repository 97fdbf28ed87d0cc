package faultinject

import "testing"

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if inj.Fire("worker.panic") {
		t.Fatal("nil injector fired")
	}
	if inj.Hits("worker.panic") != 0 || inj.Fired("worker.panic") != 0 {
		t.Fatal("nil injector counted")
	}
}

func TestFireByHitCount(t *testing.T) {
	inj := New(Rule{Point: "p", Nth: 3, Count: 2})
	want := []bool{false, false, true, true, false, false}
	for i, w := range want {
		if got := inj.Fire("p"); got != w {
			t.Fatalf("hit %d fired=%v, want %v", i+1, got, w)
		}
	}
	if inj.Hits("p") != 6 || inj.Fired("p") != 2 {
		t.Fatalf("hits=%d fired=%d, want 6/2", inj.Hits("p"), inj.Fired("p"))
	}
	if inj.Fire("other") {
		t.Fatal("unruled point fired")
	}
}

func TestParseSchedule(t *testing.T) {
	rules, err := ParseSchedule("worker.panic@40, build.fail@2x3,flush.nan@1")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Point: "worker.panic", Nth: 40, Count: 1},
		{Point: "build.fail", Nth: 2, Count: 3},
		{Point: "flush.nan", Nth: 1, Count: 1},
	}
	if len(rules) != len(want) {
		t.Fatalf("got %d rules, want %d", len(rules), len(want))
	}
	for i, r := range rules {
		if r != want[i] {
			t.Fatalf("rule %d = %+v, want %+v", i, r, want[i])
		}
	}
	for _, bad := range []string{"nope", "@3", "p@x", "p@0", "p@2x0"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Fatalf("ParseSchedule(%q) accepted", bad)
		}
	}
}

func TestUnfiredUntilEveryScheduledHit(t *testing.T) {
	inj := New(Rule{Point: "flush.nan", Nth: 2}, Rule{Point: "build.fail", Nth: 1, Count: 2})
	want := []string{"build.fail@1x2", "flush.nan@2x1"}
	if got := inj.Unfired(); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Unfired() = %v, want %v", got, want)
	}
	inj.Fire("build.fail")
	inj.Fire("flush.nan")
	inj.Fire("flush.nan")
	if got := inj.Unfired(); len(got) != 1 || got[0] != "build.fail@1x2" {
		t.Fatalf("Unfired() = %v, want [build.fail@1x2]: a ranged rule is pending until its last hit", got)
	}
	inj.Fire("build.fail")
	if got := inj.Unfired(); len(got) != 0 {
		t.Fatalf("Unfired() = %v after every scheduled hit", got)
	}
	var none *Injector
	if got := none.Unfired(); got != nil {
		t.Fatalf("nil injector Unfired() = %v", got)
	}
}
