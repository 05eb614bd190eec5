package fault

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

// install swaps in a registry for the test and restores the previous
// one (tests in other packages race through the same global).
func install(t *testing.T, r *Registry) {
	t.Helper()
	prev := Active()
	Install(r)
	t.Cleanup(func() { Install(prev) })
}

func TestDisabledIsInert(t *testing.T) {
	install(t, nil)
	if Enabled() {
		t.Fatal("Enabled() with nil registry")
	}
	if Fire(StoreRead) {
		t.Fatal("Fire with nil registry")
	}
	if err := ErrAt(StoreRead); err != nil {
		t.Fatalf("ErrAt with nil registry: %v", err)
	}
	data := []byte{0xAA, 0xBB}
	if Corrupt(StoreCorrupt, data) || data[0] != 0xAA || data[1] != 0xBB {
		t.Fatal("Corrupt mutated data with nil registry")
	}
	SleepAt(ClientStall)
	PanicAt(ServerJob)
}

func TestFaultDisabledZeroAllocs(t *testing.T) {
	install(t, nil)
	buf := []byte{1, 2, 3, 4}
	allocs := testing.AllocsPerRun(1000, func() {
		if Fire(StoreRead) {
			t.Error("fired")
		}
		if ErrAt(StoreWrite) != nil {
			t.Error("erred")
		}
		Corrupt(StoreCorrupt, buf)
		SleepAt(ClientStall)
	})
	if allocs != 0 {
		t.Fatalf("disabled fault checks allocate: %.1f allocs/op", allocs)
	}
}

func TestFirstNRule(t *testing.T) {
	r := NewRegistry(1)
	r.Arm(StoreRead, Rule{First: 2})
	install(t, r)
	var fired int
	for i := 0; i < 10; i++ {
		if err := ErrAt(StoreRead); err != nil {
			fired++
			var fe *Error
			if !errors.As(err, &fe) {
				t.Fatalf("ErrAt returned %T, want *fault.Error", err)
			}
			if fe.Point != StoreRead || fe.N != uint64(fired) {
				t.Fatalf("error = %+v, want point=%s n=%d", fe, StoreRead, fired)
			}
		}
	}
	if fired != 2 {
		t.Fatalf("First:2 fired %d times, want 2", fired)
	}
	if got := r.Fired(StoreRead); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
	if got := r.Checks(StoreRead); got != 10 {
		t.Fatalf("Checks = %d, want 10", got)
	}
}

func TestEveryKRule(t *testing.T) {
	r := NewRegistry(1)
	r.Arm(PoolBoot, Rule{Every: 3})
	install(t, r)
	var pattern []bool
	for i := 0; i < 9; i++ {
		pattern = append(pattern, Fire(PoolBoot))
	}
	want := []bool{false, false, true, false, false, true, false, false, true}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("every:3 pattern = %v, want %v", pattern, want)
		}
	}
}

func TestEveryWithFirstCap(t *testing.T) {
	r := NewRegistry(1)
	r.Arm(PoolBoot, Rule{Every: 2, First: 2})
	install(t, r)
	var fired int
	for i := 0; i < 20; i++ {
		if Fire(PoolBoot) {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("every:2 capped at first 2 fired %d times", fired)
	}
}

func TestUnarmedPointNeverFires(t *testing.T) {
	r := NewRegistry(1)
	r.Arm(StoreRead, Rule{})
	install(t, r)
	if Fire(ClientReset) {
		t.Fatal("unarmed point fired")
	}
}

func TestCorruptIsDeterministic(t *testing.T) {
	base := bytes.Repeat([]byte{0x5C}, 4096)

	flip := func(seed uint64) []byte {
		r := NewRegistry(seed)
		r.Arm(StoreCorrupt, Rule{First: 1})
		install(t, r)
		data := append([]byte(nil), base...)
		if !Corrupt(StoreCorrupt, data) {
			t.Fatal("Corrupt did not fire")
		}
		return data
	}

	a, b := flip(42), flip(42)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed flipped different bits")
	}
	if bytes.Equal(a, base) {
		t.Fatal("Corrupt flipped nothing")
	}
	// Exactly one bit differs.
	diffBits := 0
	for i := range a {
		x := a[i] ^ base[i]
		for ; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Fatalf("flipped %d bits, want 1", diffBits)
	}
	if c := flip(43); bytes.Equal(a, c) {
		t.Fatal("different seeds flipped the same bit (possible but suspicious for 32768 positions)")
	}
}

func TestCorruptOrdinalsDiffer(t *testing.T) {
	r := NewRegistry(7)
	r.Arm(StoreCorrupt, Rule{First: 2})
	install(t, r)
	a := bytes.Repeat([]byte{0}, 512)
	b := bytes.Repeat([]byte{0}, 512)
	if !Corrupt(StoreCorrupt, a) || !Corrupt(StoreCorrupt, b) {
		t.Fatal("corruptions did not fire")
	}
	if bytes.Equal(a, b) {
		t.Fatal("consecutive corruptions flipped the same bit")
	}
}

func TestSleepAtDelays(t *testing.T) {
	r := NewRegistry(1)
	r.Arm(ClientStall, Rule{First: 1, Delay: 30 * time.Millisecond})
	install(t, r)
	start := time.Now()
	SleepAt(ClientStall)
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("SleepAt returned after %v, want >=30ms", d)
	}
	// Second check doesn't fire, so no delay.
	start = time.Now()
	SleepAt(ClientStall)
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("exhausted SleepAt still slept %v", d)
	}
}

func TestPanicAt(t *testing.T) {
	r := NewRegistry(1)
	r.Arm(ServerJob, Rule{First: 1})
	install(t, r)
	func() {
		defer func() {
			v := recover()
			if v == nil {
				t.Fatal("PanicAt did not panic")
			}
			fe, ok := v.(*Error)
			if !ok || fe.Point != ServerJob {
				t.Fatalf("panic value = %#v, want *fault.Error{server.job}", v)
			}
		}()
		PanicAt(ServerJob)
	}()
	PanicAt(ServerJob) // exhausted: must not panic
}

func TestConcurrentChecksFireExactly(t *testing.T) {
	r := NewRegistry(1)
	r.Arm(StoreRead, Rule{First: 100})
	install(t, r)
	var wg sync.WaitGroup
	var mu sync.Mutex
	fired := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := 0
			for i := 0; i < 100; i++ {
				if Fire(StoreRead) {
					local++
				}
			}
			mu.Lock()
			fired += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	if fired != 100 {
		t.Fatalf("First:100 under 8 goroutines fired %d times", fired)
	}
	if r.Checks(StoreRead) != 800 {
		t.Fatalf("checks = %d, want 800", r.Checks(StoreRead))
	}
}

func TestParseSpec(t *testing.T) {
	r, err := ParseSpec("seed=42, store.read=2, client.stall=1:50ms, pool.boot=every:3, store.crash=all")
	if err != nil {
		t.Fatal(err)
	}
	if r.seed != 42 {
		t.Fatalf("seed = %d", r.seed)
	}
	wantRules := map[Point]Rule{
		StoreRead:   {First: 2},
		ClientStall: {First: 1, Delay: 50 * time.Millisecond},
		PoolBoot:    {Every: 3},
		StoreCrash:  {},
	}
	for p, want := range wantRules {
		ru := r.rules[p]
		if ru == nil {
			t.Fatalf("point %s not armed", p)
		}
		if ru.spec != want {
			t.Fatalf("point %s rule = %+v, want %+v", p, ru.spec, want)
		}
	}
	if len(r.rules) != len(wantRules) {
		t.Fatalf("armed %d points, want %d", len(r.rules), len(wantRules))
	}
}

func TestParseSpecEveryWithDelay(t *testing.T) {
	r, err := ParseSpec("pool.acquire=every:2:10ms")
	if err != nil {
		t.Fatal(err)
	}
	ru := r.rules[PoolAcquire]
	if ru == nil || ru.spec.Every != 2 || ru.spec.Delay != 10*time.Millisecond {
		t.Fatalf("rule = %+v", ru)
	}
}

// badSpecs are plans ParseSpec must reject.
var badSpecs = []string{
	"storeread",             // no =
	"seed=abc",              // bad seed
	"store.read=0",          // zero count
	"store.read=x",          // bad count
	"pool.boot=every",       // every without K
	"pool.boot=every:0",     // zero K
	"client.stall=1:nope",   // bad duration
	"client.stall=1:1ms:2s", // trailing fields
	"pool.acquire=1:-5ms",   // negative delay (String would drop it)
	"=3",                    // empty point name (no site checks it)
	"seed=2, =all",          // empty point name after a seed
	"store.chunk.raed=1",    // misspelt point: no site checks it
	"store.chunk.read=1",    // retired point: no site checks it
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range badSpecs {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
}

// FuzzParseSpec feeds the -faults decoder arbitrary plans. It must never
// panic, and a plan it accepts must print, through Registry.String, a
// spec that parses again, prints the same and arms the same rules
// (Every 0 and 1 both fire on every check).
func FuzzParseSpec(f *testing.F) {
	for _, s := range append([]string{
		"seed=42, store.read=2, client.stall=1:50ms, pool.boot=every:3, store.crash=all",
		"pool.acquire=every:2:10ms",
		"seed=9,store.crash=all,client.stall=3:50ms,pool.boot=every:4",
		"seed=42,client.reset=1,client.5xx=1,client.stall=1:50ms",
		"pool.boot=every:1,pool.boot=2:0s",
		"   ",
	}, badSpecs...) {
		f.Add(s)
	}
	norm := func(ru Rule) Rule {
		if ru.Every == 1 {
			ru.Every = 0
		}
		return ru
	}
	f.Fuzz(func(t *testing.T, spec string) {
		r, err := ParseSpec(spec)
		if err != nil {
			return
		}
		printed := r.String()
		r2, err := ParseSpec(printed)
		if err != nil {
			t.Fatalf("ParseSpec(%q) prints %q, which does not parse: %v", spec, printed, err)
		}
		if again := r2.String(); again != printed {
			t.Fatalf("ParseSpec(%q) prints %q, which prints %q", spec, printed, again)
		}
		if r2.seed != r.seed || len(r2.rules) != len(r.rules) {
			t.Fatalf("ParseSpec(%q): seed %d with %d rules, reparsed seed %d with %d rules",
				spec, r.seed, len(r.rules), r2.seed, len(r2.rules))
		}
		for p, ru := range r.rules {
			if ru2 := r2.rules[p]; ru2 == nil || norm(ru2.spec) != norm(ru.spec) {
				t.Fatalf("ParseSpec(%q): point %q armed %+v, reparsed %v", spec, p, ru.spec, ru2)
			}
		}
	})
}

func TestEnableSpecEmptyIsNoop(t *testing.T) {
	install(t, nil)
	r, err := EnableSpec("   ")
	if err != nil || r != nil {
		t.Fatalf("EnableSpec(blank) = %v, %v", r, err)
	}
	if Enabled() {
		t.Fatal("blank spec installed a registry")
	}
}

func TestStringCanonical(t *testing.T) {
	r, err := ParseSpec("seed=9,store.crash=all,client.stall=3:50ms,pool.boot=every:4")
	if err != nil {
		t.Fatal(err)
	}
	got := r.String()
	want := "seed=9,client.stall=3:50ms,pool.boot=every:4,store.crash=all"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	// Round-trip.
	r2, err := ParseSpec(got)
	if err != nil {
		t.Fatal(err)
	}
	if r2.String() != got {
		t.Fatalf("round-trip = %q", r2.String())
	}
}

func TestCountsSnapshot(t *testing.T) {
	r := NewRegistry(1)
	r.Arm(StoreRead, Rule{First: 3})
	r.Arm(ClientReset, Rule{First: 1})
	install(t, r)
	for i := 0; i < 5; i++ {
		Fire(StoreRead)
	}
	Fire(ClientReset)
	counts := r.Counts()
	if counts[StoreRead] != 3 || counts[ClientReset] != 1 {
		t.Fatalf("Counts = %v", counts)
	}
}
