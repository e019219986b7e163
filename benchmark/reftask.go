package main

import (
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The reference task is fixed work, written here in the benchmark and
// calling nothing of the toolchain. On a shared host the machine's speed
// drifts by up to a factor of two over tens of seconds, mostly in the
// memory system, which a compiler leans on: the reference task allocates,
// hashes, sorts, chases pointers and collects garbage the same way, so its
// wall time drifts with the build's. It runs after every timed operation
// (after every segment of served requests), and the end-to-end latency
// metrics are medians and percentiles of each operation's time over the
// reference time taken right after it.
//
// The task runs in the benchmark's process, after a collection, so the heap
// the code under test keeps live could only reach it through the
// collector; but a collector's cost per allocated byte is set by GOGC, not
// by the live heap, and the task's median time was the same within 4% over
// 0, 5, 20 and 80 MB of live heap. The same task in a process of its own
// followed the host's drift less closely (it moved 45% where the builds
// moved 30%).

// refKeys is the reference task's size: about 30 ms on one 2-vCPU Xeon VM,
// short beside most of the operations it normalizes.
const refKeys = 20000

// refSink keeps the reference task's result live.
var refSink int

// refTask runs the reference task in jobs goroutines at once, as the
// toolchain runs its work, and returns its wall time. It collects garbage
// before and after, untimed, so that the task starts on the same heap every
// time and the operation after it does not collect the task's garbage.
func refTask(jobs int) time.Duration {
	runtime.GC()
	defer runtime.GC()
	sums := make([]int, jobs)
	var wg sync.WaitGroup
	start := time.Now()
	for j := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[j] = refWork()
		}()
	}
	wg.Wait()
	d := time.Since(start)
	refSink += sums[0]
	return d
}

// refNode is a node of the reference task's unbalanced search tree.
type refNode struct {
	left, right *refNode
	key         string
	val         int
}

func (n *refNode) insert(key string, val int) *refNode {
	if n == nil {
		return &refNode{key: key, val: val}
	}
	if key < n.key {
		n.left = n.left.insert(key, val)
	} else {
		n.right = n.right.insert(key, val)
	}
	return n
}

func (n *refNode) sum() int {
	if n == nil {
		return 0
	}
	return n.val + n.left.sum() + n.right.sum()
}

// refWork builds a map, a search tree and a sorted slice of the same
// pseudo-random keys and walks all three.
func refWork() int {
	rng := rand.New(rand.NewSource(7))
	keys := make([]string, refKeys)
	index := make(map[string]int)
	var root *refNode
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(rng.Int())
		index[keys[i]] = i
		root = root.insert(keys[i], i)
	}
	sort.Strings(keys)
	total := root.sum()
	for _, k := range keys {
		total += index[k]
	}
	return total
}
