type t = {
  mutable heap : int array; (* heap of variables *)
  mutable size : int;
  mutable indices : int array; (* var -> position in heap, or -1 *)
}

let create () = { heap = [||]; size = 0; indices = [||] }

let ensure t v =
  let cap = Array.length t.indices in
  if v >= cap then begin
    let cap' = max (v + 1) (max 16 (2 * cap)) in
    let indices = Array.make cap' (-1) in
    Array.blit t.indices 0 indices 0 cap;
    t.indices <- indices
  end

let in_heap t v = v < Array.length t.indices && t.indices.(v) >= 0

let is_empty t = t.size = 0

let place t v pos =
  t.heap.(pos) <- v;
  t.indices.(v) <- pos

let rec up t (act : float array) v pos =
  if pos = 0 then place t v pos
  else
    let parent = (pos - 1) / 2 in
    let u = t.heap.(parent) in
    if act.(v) > act.(u) then begin
      place t u pos;
      up t act v parent
    end
    else place t v pos

let rec down t (act : float array) v pos =
  let l = (2 * pos) + 1 in
  if l >= t.size then place t v pos
  else
    let r = l + 1 in
    let child =
      if r < t.size && act.(t.heap.(r)) > act.(t.heap.(l)) then r else l
    in
    let u = t.heap.(child) in
    if act.(u) > act.(v) then begin
      place t u pos;
      down t act v child
    end
    else place t v pos

let insert t act v =
  ensure t v;
  if not (in_heap t v) then begin
    if t.size = Array.length t.heap then begin
      let cap' = max 16 (2 * Array.length t.heap) in
      let heap = Array.make cap' (-1) in
      Array.blit t.heap 0 heap 0 t.size;
      t.heap <- heap
    end;
    t.size <- t.size + 1;
    up t act v (t.size - 1)
  end

let notify_increased t act v = if in_heap t v then up t act v t.indices.(v)

let remove_max t act =
  if t.size = 0 then raise Not_found;
  let top = t.heap.(0) in
  t.indices.(top) <- -1;
  t.size <- t.size - 1;
  if t.size > 0 then down t act t.heap.(t.size) 0;
  top
