package platform

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/mem"
)

// small shrinks p's heap to program_t's size, which no static image
// depends on, so that a test can build many environments cheaply.
func small(p Profile) Profile {
	p.InitialHeap, p.HeapReserve = 1<<20, 4<<20
	if p.OtherLiveBytes > 0 {
		p.OtherLiveBytes = 64 << 10
	}
	return p
}

// referenceImage is a fresh run of the generator: the words p's static
// image of the given size must hold.
func referenceImage(t *testing.T, p Profile, bytes int) []mem.Word {
	t.Helper()
	seg, err := mem.NewSegment("static", mem.KindData, p.StaticBase, bytes, bytes)
	if err != nil {
		t.Fatal(err)
	}
	p.fillStatic(seg)
	return seg.Words()
}

// imagesNamed counts the cached static images generated for a profile
// name.
func imagesNamed(name string) int {
	n := 0
	staticImages.Range(func(k, _ any) bool {
		if k.(staticKey).name == name {
			n++
		}
		return true
	})
	return n
}

// buildStatics builds p and returns the environment and the words of
// its mapped static segment.
func buildStatics(t *testing.T, p Profile, seed uint64) (*Env, []mem.Word) {
	t.Helper()
	env, err := p.Build(seed, true)
	if err != nil {
		t.Fatal(err)
	}
	seg := env.World.Space.Segment("static")
	if seg == nil || seg != env.statics {
		t.Fatal("static segment not mapped")
	}
	return env, seg.Words()
}

// TestStaticImageMatchesReference: every table-1 profile, optimized or
// not, maps exactly the words the generator writes, on the build that
// generates the image and on the builds that copy it.
func TestStaticImageMatchesReference(t *testing.T) {
	for _, p := range Table1Profiles() {
		p := small(p)
		t.Run(fmt.Sprintf("%s optimized=%t", p.Name, p.Optimized), func(t *testing.T) {
			for _, seed := range []uint64{1, 2, 3} {
				_, words := buildStatics(t, p, seed)
				if !slices.Equal(words, referenceImage(t, p, len(words)*mem.WordBytes)) {
					t.Fatalf("seed %d: static image differs from the generator's", seed)
				}
			}
		})
	}
}

// TestStaticImageSurvivesMutatingStatics: the statics PCR rewrites
// mid-run belong to that environment alone; the next build of the same
// profile reads the pristine image. The profile's name is its own, so
// the first environment here is the one that generates the image.
func TestStaticImageSurvivesMutatingStatics(t *testing.T) {
	p := small(PCR(0))
	p.Name = "PCR (mutating statics test)"
	var ref []mem.Word
	for seed := uint64(1); seed <= 2; seed++ {
		env, words := buildStatics(t, p, seed)
		ref = referenceImage(t, p, len(words)*mem.WordBytes)
		if err := env.midRun(); err != nil {
			t.Fatal(err)
		}
		if slices.Equal(words, ref) {
			t.Fatalf("seed %d: midRun rewrote no static word", seed)
		}
	}
	if _, words := buildStatics(t, p, 3); !slices.Equal(words, ref) {
		t.Fatal("a later build read statics another environment rewrote")
	}
}

// TestStaticImagePerKey: profiles that differ in one input of the image
// each get an image of their own, and each maps its own generator's
// words.
func TestStaticImagePerKey(t *testing.T) {
	base := small(SPARCDynamic(false))
	base.Name = "SPARC (key test)"
	aligned := base
	aligned.StringsAligned = true
	longer := base
	longer.StringBytes += 100
	table := base
	table.Tables = slices.Clone(base.Tables)
	table.Tables[0].SmallFrac = 0.9
	moved := base
	moved.StaticBase += 0x8000
	variants := []Profile{base, aligned, longer, table, moved}
	for i, p := range variants {
		_, words := buildStatics(t, p, 1)
		if !slices.Equal(words, referenceImage(t, p, len(words)*mem.WordBytes)) {
			t.Errorf("variant %d maps another profile's image", i)
		}
	}
	if n := imagesNamed(base.Name); n != len(variants) {
		t.Errorf("%d images cached for %d variants", n, len(variants))
	}
}

// TestStaticImageConcurrentBuilds: eight goroutines build two profiles
// at once, each generating or copying the image, then rewrite their own
// statics; under -race a shared image shows as a race, and every
// environment reads its generator's words.
func TestStaticImageConcurrentBuilds(t *testing.T) {
	a, b := small(SPARCStatic(false)), small(PCR(0))
	a.Name, b.Name = "SPARC (concurrent test)", "PCR (concurrent test)"
	var wg sync.WaitGroup
	images := make([][]mem.Word, 8)
	for i := range images {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := a
			if i%2 == 1 {
				p = b
			}
			env, err := p.Build(uint64(i), true)
			if err != nil {
				t.Error(err)
				return
			}
			images[i] = slices.Clone(env.statics.Words())
			if err := env.midRun(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, words := range images {
		p := a
		if i%2 == 1 {
			p = b
		}
		if !slices.Equal(words, referenceImage(t, p, len(words)*mem.WordBytes)) {
			t.Errorf("goroutine %d read a static image that is not its profile's", i)
		}
	}
	if imagesNamed(a.Name) != 1 || imagesNamed(b.Name) != 1 {
		t.Errorf("cached images: %d and %d, want one each", imagesNamed(a.Name), imagesNamed(b.Name))
	}
}

// BenchmarkBuild is one program_t environment's set-up: program_t's
// profile (SPARC static, 1 MiB heap), its static image copied from the
// cache, and the startup collection. perfbench's program_t setup_s is
// 250 of these, each after a runtime.GC, as here.
func BenchmarkBuild(b *testing.B) {
	p := small(SPARCStatic(false))
	p.NLists = 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		if _, err := p.Build(uint64(i), true); err != nil {
			b.Fatal(err)
		}
	}
}
