; seqsum — read ten files end to end, checksum their bytes, print the sum.
;
; A standalone copy of the quickstart program for driving specrun directly;
; CI uses it as the -trace-json smoke test. The input files data/part0 ..
; data/part9 come from the host via -dir:
;
;   mkdir -p /tmp/seqsum/data && for i in $(seq 0 9); do
;       head -c $((20000 + i * 1000)) /dev/zero | tr '\0' x > /tmp/seqsum/data/part$i
;   done
;   go run ./cmd/specrun -file examples/progs/seqsum.s -dir /tmp/seqsum -mode spec
;
; The reads are argv-determined (the file list is static data), so the
; speculating build hints essentially all of them — the best case from the
; paper, visible immediately in the -trace timeline or a -trace-json export.
; A file that cannot be opened or read ends the program with exit status 1.
.data
buf:    .space 8192
nfiles: .word 10
files:  .word f0, f1, f2, f3, f4, f5, f6, f7, f8, f9
f0: .asciz "data/part0"
f1: .asciz "data/part1"
f2: .asciz "data/part2"
f3: .asciz "data/part3"
f4: .asciz "data/part4"
f5: .asciz "data/part5"
f6: .asciz "data/part6"
f7: .asciz "data/part7"
f8: .asciz "data/part8"
f9: .asciz "data/part9"
.text
main:
    ldw  r20, nfiles
    movi r21, files
next:
    beq  r20, r0, done
    ldw  r1, (r21)
    syscall open
    blt  r1, r0, fail
    mov  r10, r1
loop:
    mov  r1, r10
    movi r2, buf
    movi r3, 8192
    syscall read
    beq  r1, r0, eof
    blt  r1, r0, fail
    movi r4, buf
    add  r5, r4, r1
sum:
    ldb  r6, (r4)
    add  r22, r22, r6
    addi r4, r4, 1
    blt  r4, r5, sum
    jmp  loop
eof:
    mov  r1, r10
    syscall close
    addi r21, r21, 8
    addi r20, r20, -1
    jmp  next
done:
    andi r1, r22, 0xffff
    syscall printint
    movi r1, 0
    syscall exit
fail:
    movi r1, 1
    syscall exit
