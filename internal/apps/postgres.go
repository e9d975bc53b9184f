package apps

import (
	"fmt"

	"spechint/internal/workload"
)

// postgresSource builds the database-join benchmark from the paper's Table 1
// (Patterson's Postgres run): a sequential scan of the outer relation drives
// random fetches into an inner relation far larger than the file cache. Each
// outer tuple carries the tid of its matching inner tuple (the index
// lookup's result) or -1; selectivity controls how many tuples join.
//
// Access-pattern class: the inner fetches are data dependent on the *current
// outer chunk* — unpredictable before the chunk arrives, perfectly
// predictable afterwards. Speculation therefore strays at each outer-chunk
// boundary and hints the whole batch of inner fetches after one restart;
// the manually modified Postgres disclosed exactly those batches
// (paper Table 1: 48% improvement at 20% selectivity, 69% at 80%).
//
// Exit code: checksum over joined inner tuples, masked.
func postgresSource(outer, inner string, spec workload.PostgresSpec, manual bool) string {
	chunkTuples := 8192 / workload.OuterTupleSize
	src := fmt.Sprintf(`; Postgres: nested join, outer scan + random inner fetches
.equ OUTSIZE %d
.equ INSIZE %d
.equ CHUNKT %d
.data
obuf:  .space 8192
ibuf:  .space %d
opath: .asciz %q
ipath: .asciz %q
.text
main:
    movi r1, opath
    syscall open
    blt  r1, r0, fail
    mov  r10, r1          ; outer fd
    movi r1, ipath
    syscall open
    blt  r1, r0, fail
    mov  r11, r1          ; inner fd
    movi r22, 1           ; checksum
chunk:
    mov  r1, r10
    movi r2, obuf
    movi r3, 8192
    syscall read
    beq  r1, r0, done
    mov  r15, r1          ; bytes in this chunk
`, workload.OuterTupleSize, spec.InnerSize, chunkTuples, spec.InnerSize, outer, inner)

	if manual {
		// Disclose the chunk's inner fetches before performing any of them.
		src += `
    ; --- manual hints: one TIPIO_FD_SEG per joining tuple in the chunk ---
    movi r4, obuf
    add  r5, r4, r15
mh:
    ldw  r6, 8(r4)        ; inner tid or -1
    blt  r6, r0, mhnext
    movi r7, INSIZE
    mul  r2, r6, r7
    mov  r1, r11
    mov  r3, r7
    syscall hintfd
mhnext:
    addi r4, r4, OUTSIZE
    blt  r4, r5, mh
`
	}
	src += `
    ; fetch pass: join every matching tuple in the chunk
    movi r4, obuf
    add  r5, r4, r15
join:
    ldw  r6, 8(r4)        ; inner tid or -1
    blt  r6, r0, jnext
    movi r7, INSIZE
    mul  r2, r6, r7
    mov  r1, r11
    movi r3, 0
    syscall seek
    mov  r1, r11
    movi r2, ibuf
    movi r3, INSIZE
    syscall read
    movi r7, INSIZE
    bne  r1, r7, fail
    ; fold the inner tuple into the result
    movi r8, ibuf
    add  r9, r8, r1
jf:
    ldw  r12, (r8)
    add  r22, r22, r12
    addi r8, r8, 16
    blt  r8, r9, jf
    ; emit the joined tuple (write-behind)
    movi r1, 1
    movi r2, ibuf
    movi r3, INSIZE
    syscall write
jnext:
    addi r4, r4, OUTSIZE
    blt  r4, r5, join
    jmp  chunk
done:
    mov  r1, r10
    syscall close
    mov  r1, r11
    syscall close
    movi r2, 0xffffff
    and  r1, r22, r2
    syscall exit
fail:
    movi r1, -3
    syscall exit
`
	return src
}
