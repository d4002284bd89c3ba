(* The benchmark's correctness checkers, and the self-test that shows each
   one rejects an output with a single element perturbed. *)

module B = Tiramisu_backends
module S = Tiramisu_service.Service

(* Every output buffer of a compiled kernel against the reference. *)
let against_reference (refs : Reference.out list) (exec : B.Exec.compiled) =
  List.fold_left
    (fun acc (o : Reference.out) ->
      match acc with
      | Error _ -> acc
      | Ok () ->
          let b = B.Exec.buffer exec o.Reference.o_name in
          Reference.compare_out o ~dims:b.B.Buffers.dims ~got:b.B.Buffers.data)
    (Ok ()) refs

(* Bit-for-bit equality, for the executor against the interpreter. *)
let bitwise name (a : float array) (b : float array) =
  if Array.length a <> Array.length b then
    Error (Printf.sprintf "%s: %d elements vs %d" name (Array.length a)
             (Array.length b))
  else
    let n = Array.length a in
    let rec go i =
      if i = n then Ok ()
      else if Int64.bits_of_float a.(i) <> Int64.bits_of_float b.(i) then
        Error (Printf.sprintf "%s[%d]: %h vs %h (interpreter)" name i a.(i)
                 b.(i))
      else go (i + 1)
    in
    go 0

(* ---------- service identities ---------- *)

type tier = [ `Compiled | `Mem | `Disk | `Dedup ]

let tier_name : tier -> string = function
  | `Compiled -> "compiled"
  | `Mem -> "mem"
  | `Disk -> "disk"
  | `Dedup -> "dedup"

(* Identity 1: one request moves exactly one of the four tier counters by
   one, and it is the tier the response names (a dedup waiter's response
   names the tier of the compile it waited on). *)
let one_tier ~(before : S.stats) ~(after : S.stats) (source : S.source) =
  let d : (tier * int) list =
    [ (`Compiled, after.S.compiles - before.S.compiles);
      (`Mem, after.S.mem_hits - before.S.mem_hits);
      (`Disk, after.S.disk_hits - before.S.disk_hits);
      (`Dedup, after.S.dedup_waits - before.S.dedup_waits) ]
  in
  let moved = List.filter (fun (_, n) -> n <> 0) d in
  match moved with
  | [ (`Dedup, 1) ] -> Ok `Dedup
  | [ (t, 1) ] when t = (source :> tier) -> Ok t
  | _ ->
      Error
        (Printf.sprintf "request moved tiers {%s} but was served from %s"
           (String.concat ", "
              (List.map (fun (t, n) -> Printf.sprintf "%s:%+d" (tier_name t) n) d))
           (tier_name (source :> tier)))

(* Identity 2: at most one compile per key in one server lifetime. *)
let compile_once (seen : (string, unit) Hashtbl.t) ~key (t : tier) =
  match t with
  | `Compiled when Hashtbl.mem seen key ->
      Error ("key " ^ key ^ " compiled twice in one server lifetime")
  | `Compiled -> Hashtbl.replace seen key (); Ok ()
  | _ -> Ok ()

(* ---------- self-test ---------- *)

(* Each checker must reject an output that differs from an accepted one in
   a single element.  [accepted_exec] holds outputs that match [refs]. *)
let self_test ~rng (refs : Reference.out list) ~accepted_exec =
  let fail what = Error ("self-test: " ^ what ^ " accepted a perturbed output") in
  let o = List.hd refs in
  let got = Array.copy (B.Exec.buffer accepted_exec o.Reference.o_name).B.Buffers.data in
  let k = Random.State.int rng (Array.length got) in
  let v = got.(k) in
  let r_ok = Reference.compare_out o ~dims:o.Reference.o_dims ~got in
  got.(k) <- v +. (1e-6 *. Float.max 1.0 (Float.abs v));
  let r_bad = Reference.compare_out o ~dims:o.Reference.o_dims ~got in
  got.(k) <- v;
  let b_ok = bitwise "self" got (Array.copy got) in
  let flipped = Array.copy got in
  flipped.(k) <- Float.succ v;
  let b_bad = bitwise "self" flipped got in
  let zero = { S.requests = 0; compiles = 0; mem_hits = 0; disk_hits = 0;
               dedup_waits = 0; rejected = 0; failed = 0; quarantined = 0 } in
  let one_mem = { zero with S.requests = 1; mem_hits = 1 } in
  let t_ok = one_tier ~before:zero ~after:one_mem `Mem in
  let t_bad = one_tier ~before:zero ~after:{ one_mem with S.disk_hits = 1 } `Mem in
  let seen = Hashtbl.create 1 in
  let c_ok = compile_once seen ~key:"k" `Compiled in
  let c_bad = compile_once seen ~key:"k" `Compiled in
  match (r_ok, r_bad, b_ok, b_bad, t_ok, t_bad, c_ok, c_bad) with
  | Ok (), Error _, Ok (), Error _, Ok _, Error _, Ok (), Error _ -> Ok ()
  | Error e, _, _, _, _, _, _, _ -> Error ("self-test: reference rejected " ^ e)
  | _, Ok (), _, _, _, _, _, _ -> fail "the reference comparison"
  | _, _, _, Ok (), _, _, _, _ -> fail "the bitwise comparison"
  | _, _, _, _, _, Ok _, _, _ -> fail "the one-tier identity"
  | _, _, _, _, _, _, _, Ok () -> fail "the compile-once identity"
  | _ -> Error "self-test: a checker rejected an unperturbed output"
