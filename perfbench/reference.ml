(* Plain-OCaml references for the eleven catalog kernels, written from
   their definitions in lib/kernels/ (Image, Linalg) and sharing no code
   with the compiler: no lowering, no interpreter, no buffer module.  Each
   returns the full expected contents of the kernel's output buffers; a
   program output is accepted when every element is within [rtol] of it,
   relative to max(1, |expected|). *)

let rtol = 1e-9

(* Row-major table of [f] over [dims]. *)
let tab dims (f : int array -> float) =
  let n = Array.fold_left ( * ) 1 dims in
  let a = Array.make n 0.0 in
  let rank = Array.length dims in
  let idx = Array.make rank 0 in
  for flat = 0 to n - 1 do
    a.(flat) <- f (Array.copy idx);
    let k = ref (rank - 1) in
    while !k >= 0 do
      idx.(!k) <- idx.(!k) + 1;
      if idx.(!k) = dims.(!k) then (idx.(!k) <- 0; decr k) else k := -1
    done
  done;
  a

let clamp v lo hi = if v < lo then lo else if v > hi then hi else v
let p params name = List.assoc name params

type out = { o_name : string; o_dims : int array; o_data : float array }

let blur ~params ~input =
  let n = p params "N" and m = p params "M" in
  let img = tab [| n; m; 3 |] (input "img") in
  let at i j c = img.((((i * m) + j) * 3) + c) in
  let bx i j c = (at i j c +. at i (j + 1) c +. at i (j + 2) c) /. 3.0 in
  let dims = [| n - 4; m - 2; 3 |] in
  let by =
    tab dims (fun ix ->
        let i = ix.(0) and j = ix.(1) and c = ix.(2) in
        (bx i j c +. bx (i + 1) j c +. bx (i + 2) j c) /. 3.0)
  in
  [ { o_name = "by"; o_dims = dims; o_data = by } ]

let cvt_color ~params ~input =
  let n = p params "N" and m = p params "M" in
  let img = tab [| n; m; 3 |] (input "img") in
  let at i j c = img.((((i * m) + j) * 3) + c) in
  let dims = [| n; m |] in
  let gray =
    tab dims (fun ix ->
        let i = ix.(0) and j = ix.(1) in
        (0.299 *. at i j 0) +. (0.587 *. at i j 1) +. (0.114 *. at i j 2))
  in
  [ { o_name = "gray"; o_dims = dims; o_data = gray } ]

let conv2d ~params ~input =
  let n = p params "N" and m = p params "M" in
  let img = tab [| n; m; 3 |] (input "img") in
  let w = tab [| 3; 3 |] (input "weights") in
  let at i j c = img.((((i * m) + j) * 3) + c) in
  let dims = [| n; m; 3 |] in
  let conv =
    tab dims (fun ix ->
        let i = ix.(0) and j = ix.(1) and c = ix.(2) in
        let s = ref 0.0 and first = ref true in
        for ki = 0 to 2 do
          for kj = 0 to 2 do
            let t =
              at (clamp (i + ki - 1) 0 (n - 1)) (clamp (j + kj - 1) 0 (m - 1)) c
              *. w.((ki * 3) + kj)
            in
            if !first then (s := t; first := false) else s := !s +. t
          done
        done;
        !s)
  in
  [ { o_name = "conv"; o_dims = dims; o_data = conv } ]

let warp_affine ~params ~input =
  let n = p params "N" and m = p params "M" in
  let img = tab [| n; m |] (input "img") in
  let a11, a12, b1, a21, a22, b2 = (0.9, 0.1, 3.0, -0.1, 0.9, 5.0) in
  let dims = [| n; m |] in
  let warp =
    tab dims (fun ix ->
        let fi = float_of_int ix.(0) and fj = float_of_int ix.(1) in
        let xf = (a11 *. fi) +. (a12 *. fj) +. b1 in
        let yf = (a21 *. fi) +. (a22 *. fj) +. b2 in
        let xi = clamp (int_of_float (Float.floor xf)) 0 (n - 2) in
        let yi = clamp (int_of_float (Float.floor yf)) 0 (m - 2) in
        let wx = xf -. Float.floor xf and wy = yf -. Float.floor yf in
        let s dx dy = img.(((xi + dx) * m) + yi + dy) in
        ((1.0 -. wx) *. (1.0 -. wy) *. s 0 0)
        +. (wx *. (1.0 -. wy) *. s 1 0)
        +. ((1.0 -. wx) *. wy *. s 0 1)
        +. (wx *. wy *. s 1 1))
  in
  [ { o_name = "warp"; o_dims = dims; o_data = warp } ]

let gaussian ~params ~input =
  let n = p params "N" and m = p params "M" in
  let w = [| 0.0625; 0.25; 0.375; 0.25; 0.0625 |] in
  let img = tab [| n; m; 3 |] (input "img") in
  let dims = [| n; m; 3 |] in
  let taps get =
    let s = ref (w.(0) *. get 0) in
    for k = 1 to 4 do s := !s +. (w.(k) *. get k) done;
    !s
  in
  let gx =
    tab dims (fun ix ->
        let i = ix.(0) and j = ix.(1) and c = ix.(2) in
        taps (fun k -> img.((((i * m) + clamp (j + k - 2) 0 (m - 1)) * 3) + c)))
  in
  let gy =
    tab dims (fun ix ->
        let i = ix.(0) and j = ix.(1) and c = ix.(2) in
        taps (fun k -> gx.((((clamp (i + k - 2) 0 (n - 1) * m) + j) * 3) + c)))
  in
  [ { o_name = "gy"; o_dims = dims; o_data = gy } ]

let nb ~params ~input =
  let n = p params "N" and m = p params "M" in
  let dims = [| n; m; 3 |] in
  let img = tab dims (input "img") in
  [ { o_name = "negative"; o_dims = dims;
      o_data = Array.map (fun v -> Float.max 0.0 (255.0 -. v)) img };
    { o_name = "brightened"; o_dims = dims;
      o_data = Array.map (fun v -> Float.min 255.0 (1.5 *. v)) img } ]

let edge_detector ~params ~input =
  let n = p params "N" in
  let dims = [| n; n |] in
  let img = tab dims (input "img") in
  let at i j = img.((i * n) + j) in
  (* ring blur over [1, N-2)^2 *)
  let r = Array.make (n * n) 0.0 in
  for i = 1 to n - 3 do
    for j = 1 to n - 3 do
      r.((i * n) + j) <-
        (at (i - 1) (j - 1) +. at (i - 1) j +. at (i - 1) (j + 1)
        +. at i (j - 1) +. at i (j + 1) +. at (i + 1) (j - 1)
        +. at (i + 1) j +. at (i + 1) (j + 1))
        /. 8.0
    done
  done;
  let rr i j = r.((i * n) + j) in
  (* the Roberts edges overwrite the input image in place *)
  let out = Array.copy img in
  for i = 1 to n - 4 do
    for j = 2 to n - 3 do
      out.((i * n) + j) <-
        Float.abs (rr i j -. rr (i + 1) (j - 1))
        +. Float.abs (rr (i + 1) j -. rr i (j - 1))
    done
  done;
  [ { o_name = "img"; o_dims = dims; o_data = out } ]

let ticket2373 ~params ~input =
  let n = p params "N" in
  let img = tab [| n |] (input "img") in
  let dims = [| n; n |] in
  (* only the triangle x >= r is written; the rest keeps its zero *)
  let t =
    tab dims (fun ix ->
        let r = ix.(0) and x = ix.(1) in
        if x >= r then img.(x - r) else 0.0)
  in
  [ { o_name = "t"; o_dims = dims; o_data = t } ]

let sgemm ~params ~input =
  let s = p params "S" in
  let dims = [| s; s |] in
  let a = tab dims (input "A") and b = tab dims (input "B") in
  let c0 = tab dims (input "C0") in
  let c = Array.make (s * s) 0.0 in
  for i = 0 to s - 1 do
    for j = 0 to s - 1 do
      let acc = ref (0.25 *. c0.((i * s) + j)) in
      for k = 0 to s - 1 do
        acc := !acc +. (0.75 *. a.((i * s) + k) *. b.((k * s) + j))
      done;
      c.((i * s) + j) <- !acc
    done
  done;
  [ { o_name = "C"; o_dims = dims; o_data = c } ]

let hpcg ~params ~input =
  let g = p params "G" in
  let pv = tab [| g; g; g |] (input "p") in
  let at i j k = pv.((((i * g) + j) * g) + k) in
  let dims = [| g - 2; g - 2; g - 2 |] in
  let q =
    tab dims (fun ix ->
        let i = ix.(0) + 1 and j = ix.(1) + 1 and k = ix.(2) + 1 in
        let s = ref 0.0 and first = ref true in
        for di = -1 to 1 do
          for dj = -1 to 1 do
            for dk = -1 to 1 do
              let w = if di = 0 && dj = 0 && dk = 0 then 26.0 else -1.0 in
              let t = w *. at (i + di) (j + dj) (k + dk) in
              if !first then (s := t; first := false) else s := !s +. t
            done
          done
        done;
        !s)
  in
  [ { o_name = "q"; o_dims = dims; o_data = q } ]

let baryon ~params ~input =
  let t = p params "T" and d = p params "D" in
  let w = tab [| d; d; d |] (input "w") in
  let p1 = tab [| d; t |] (input "P1") and p2 = tab [| d; t |] (input "P2") in
  let p3 = tab [| d; t |] (input "P3") in
  let bl =
    Array.init t (fun tt ->
        let acc = ref 0.0 in
        for i = 0 to d - 1 do
          for j = 0 to d - 1 do
            for k = 0 to d - 1 do
              acc :=
                !acc
                +. (w.((((i * d) + j) * d) + k) *. p1.((i * t) + tt)
                   *. p2.((j * t) + tt) *. p3.((k * t) + tt))
            done
          done
        done;
        !acc)
  in
  [ { o_name = "Bl"; o_dims = [| t |]; o_data = bl } ]

let of_kernel = function
  | "blur" -> blur
  | "cvtColor" -> cvt_color
  | "conv2D" -> conv2d
  | "warpAffine" -> warp_affine
  | "gaussian" -> gaussian
  | "nb" -> nb
  | "edgeDetector" -> edge_detector
  | "ticket2373" -> ticket2373
  | "sgemm" -> sgemm
  | "hpcg" -> hpcg
  | "baryon" -> baryon
  | k -> invalid_arg ("Reference.of_kernel: " ^ k)

(* [got] against one expected output: dims must agree and every element be
   within tolerance.  The error names the first offending element. *)
let compare_out (o : out) ~dims ~(got : float array) =
  if dims <> o.o_dims then
    Error
      (Printf.sprintf "%s: dims [%s], expected [%s]" o.o_name
         (String.concat ";" (Array.to_list (Array.map string_of_int dims)))
         (String.concat ";"
            (Array.to_list (Array.map string_of_int o.o_dims))))
  else begin
    let bad = ref None in
    let i = ref 0 in
    let n = Array.length got in
    while !bad = None && !i < n do
      let want = o.o_data.(!i) and v = got.(!i) in
      if not (Float.abs (v -. want) <= rtol *. Float.max 1.0 (Float.abs want))
      then bad := Some (!i, v, want);
      incr i
    done;
    match !bad with
    | None -> Ok ()
    | Some (k, v, want) ->
        Error (Printf.sprintf "%s[%d] = %.17g, expected %.17g" o.o_name k v want)
  end
